package core

import (
	"runtime"
	"testing"
	"time"

	"apan/internal/dataset"
)

// TestWarmModelFootprint builds the model the benchmark warms (Wikipedia at
// scale 1, 10k events replayed) and pins what its mailboxes and state rows
// cost: one block per node that has mail, one row per touched node plus at
// most one partly carved slab, and no numNodes×dim term in either
// — and that admitting nodes past the ID space moves no mail and no row.
func TestWarmModelFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("a scale-1 replay under the race detector is slow; the footprint does not depend on it")
	}
	ds := dataset.Wikipedia(dataset.Config{Scale: 1, Seed: 1})
	cfg := Config{NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim, Seed: 1}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyEvents(t, m, ds.Events[:10000], m.Cfg.BatchSize)

	withMail := 0
	for n := 0; n < ds.NumNodes; n++ {
		if m.Mailbox().Len(int32(n)) > 0 {
			withMail++
		}
	}
	block := int64(m.Cfg.Slots * m.Cfg.EdgeDim * 4)
	dense := int64(ds.NumNodes) * block
	occ := m.Mailbox().Occupancy()
	if occ.NodesWithMail != withMail || occ.LiveBlocks != withMail || occ.FreeBlocks != 0 || occ.Bytes != int64(withMail)*block {
		t.Fatalf("occupancy %+v, want %d mailboxes × %d B", occ, withMail, block)
	}
	if withMail == 0 || occ.Bytes*2 > dense {
		t.Fatalf("%d of %d nodes have mail: %d B against %d B dense — the stream no longer leaves most mailboxes empty", withMail, ds.NumNodes, occ.Bytes, dense)
	}

	touched := 0
	for n := 0; n < ds.NumNodes; n++ {
		if m.State().Touched(int32(n)) {
			touched++
		}
	}
	row := int64(m.Cfg.EdgeDim * 4)
	denseState := int64(ds.NumNodes) * row
	st := m.State().Occupancy()
	if st.TouchedNodes != touched || st.FreeRows != 0 || st.Slabs == 0 {
		t.Fatalf("state occupancy %+v, want %d touched nodes and no free rows", st, touched)
	}
	live, slab := int64(touched)*row, st.Bytes/int64(st.Slabs)
	if st.Bytes < live || st.Bytes-live >= slab {
		t.Fatalf("state holds %d B for %d touched rows (%d B): slack past one partial %d-byte slab", st.Bytes, touched, live, slab)
	}
	if st.Bytes*2 > denseState {
		t.Fatalf("%d of %d nodes touched: %d B against %d B dense — the stream no longer leaves most nodes untouched", touched, ds.NumNodes, st.Bytes, denseState)
	}

	// Admission past the ID space: the dense layout reallocated and copied
	// every mailbox here (60 MiB, 13–62 ms under the exclusive store lock).
	// The dense state store copied its 6.3 MB too; both now extend only
	// their indexes. The state half is measured on its own. Bytes are
	// the deterministic guard; the time is only logged — it read 7–10 ms on
	// a busy 2-core box against a bound of 5 — and is taken on a heap that
	// has been through a collection, as a serving process's has: on pages
	// the process never touched, faulting them in is most of the cost.
	_ = m.SnapshotRuntime()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m.State().Grow(ds.NumNodes + 100)
	runtime.ReadMemStats(&m1)
	stateGrow := int64(m1.TotalAlloc - m0.TotalAlloc)
	if stateGrow*8 > denseState {
		t.Fatalf("growing the state store by 100 nodes allocated %d B; the dense store was %d B", stateGrow, denseState)
	}
	runtime.ReadMemStats(&m0)
	start := time.Now()
	m.EnsureNodes(ds.NumNodes + 100)
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	got := int64(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("%d of %d mailboxes hold mail (%d B; dense %d B); %d nodes touched (%d B in %d slabs; dense %d B); EnsureNodes(+100): %v, %d B allocated past the state's %d B",
		withMail, ds.NumNodes, occ.Bytes, dense, touched, st.Bytes, st.Slabs, denseState, took, got, stateGrow)
	if got > dense/4 {
		t.Fatalf("EnsureNodes(+100) allocated %d B; the dense mailbox alone was %d B", got, dense)
	}
	if after := m.Mailbox().Occupancy(); after != occ {
		t.Fatalf("EnsureNodes changed mail occupancy: %+v -> %+v", occ, after)
	}
	if after := m.State().Occupancy(); after != st {
		t.Fatalf("EnsureNodes changed state occupancy: %+v -> %+v", st, after)
	}
}
