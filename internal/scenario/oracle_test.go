package scenario

import (
	"math"
	"math/rand"
	"testing"

	"apan/internal/core"
	"apan/internal/wal"
)

// TestLoggedRowsEqualRecomputedInference keeps, as a test, the property the
// log's replay used to depend on: with frozen parameters and no eviction,
// inference is a pure function of (parameters, state, batch). Over the
// kill_recover trace, every record's rows are bit for bit what Score
// computes on a twin model standing where the leader stood when it scored
// the batch. Replay no longer runs inference, so this is now an oracle for
// the rows themselves — an independent second computation of what is logged.
func TestLoggedRowsEqualRecomputedInference(t *testing.T) {
	o := testOptions(t)
	o.normalize()
	tr := FlashCrowd(rand.New(rand.NewSource(o.Seed)), o.params())
	leader, err := newModel(tr, o)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := newModel(tr, o)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncNone, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	batches := splitBatches(tr.Events, o.BatchSize)
	var p core.Pending
	for _, b := range batches {
		ensureBatch(leader.EnsureNodes, b)
		leader.Score(b, &p)
		leader.ApplyPending(&p)
	}
	if err := leader.DetachWAL().Sync(); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	records, dim := 0, twin.Cfg.EdgeDim
	err = l.ReplayRecords(0, func(rec wal.Record) error {
		// The twin scores and applies the batch itself; ApplyPending copies
		// each endpoint's fresh embedding into the state store verbatim, so
		// that is where the recomputed rows are read.
		ensureBatch(twin.EnsureNodes, rec.Events)
		twin.Score(rec.Events, &p)
		twin.ApplyPending(&p)
		// Row order is the plan's: distinct endpoints by first appearance.
		seen, row := map[int32]bool{}, 0
		for _, ev := range rec.Events {
			for _, n := range []int32{ev.Src, ev.Dst} {
				if seen[n] {
					continue
				}
				seen[n] = true
				got := rec.Rows[row*dim : (row+1)*dim]
				want := twin.State().Get(n)
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("record at %d, node %d (row %d), dim %d: logged %v, recomputed %v", rec.First, n, row, j, got[j], want[j])
					}
				}
				row++
			}
		}
		if rec.Dim != dim || len(rec.Rows) != row*dim {
			t.Fatalf("record at %d carries %d values of dim %d for %d endpoints of dim %d", rec.First, len(rec.Rows), rec.Dim, row, dim)
		}
		records++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if records != len(batches) {
		t.Fatalf("log replayed %d records, the leader applied %d batches", records, len(batches))
	}
	if twin.RuntimeDigest() != leader.RuntimeDigest() {
		t.Fatal("twin and leader ended apart")
	}
}
