package core

import (
	"runtime"
	"testing"
	"time"

	"apan/internal/dataset"
)

// TestWarmModelFootprint builds the model the benchmark warms (Wikipedia at
// scale 1, 10k events replayed) and pins what its mailboxes cost: one block
// per node that has mail and no numNodes×slots×dim term — and that admitting
// nodes past the ID space moves no mail.
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

	// Admission past the ID space: the dense layout reallocated and copied
	// every mailbox here (60 MiB, 13–62 ms under the exclusive store latch).
	// What is left is the index and the dense state store's copy. Bytes are
	// the deterministic guard; the time is only logged — it read 7–10 ms on
	// a busy 2-core box against a bound of 5 — and is taken on a heap that
	// has been through a collection, as a serving process's has: on pages
	// the process never touched, faulting them in is most of the cost.
	_ = m.SnapshotRuntime()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	m.EnsureNodes(ds.NumNodes + 100)
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	got := int64(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("%d of %d mailboxes hold mail (%d B; dense %d B); EnsureNodes(+100): %v, %d B allocated", withMail, ds.NumNodes, occ.Bytes, dense, took, got)
	if got > dense/4 {
		t.Fatalf("EnsureNodes(+100) allocated %d B; the dense mailbox alone was %d B", got, dense)
	}
	if after := m.Mailbox().Occupancy(); after != occ {
		t.Fatalf("EnsureNodes changed mail occupancy: %+v -> %+v", occ, after)
	}
}
