package core

import (
	"runtime"
	"testing"
	"time"

	"apan/internal/dataset"
)

// TestWarmModelFootprint builds the model the benchmark warms (Wikipedia at
// scale 1, 10k events replayed) and pins what its node store costs: one
// record (z row and mailbox) per node holding one, plus at most one partly
// carved slab, and no term in the ID space — and that admitting nodes past
// the ID space moves no record.
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

	st := m.State()
	held, withMail, touched := 0, 0, 0
	for n := int32(0); n < int32(ds.NumNodes); n++ {
		mail, z := st.Len(n) > 0, st.Touched(n)
		if mail {
			withMail++
		}
		if z {
			touched++
		}
		if mail || z { // with no eviction, exactly the nodes holding a record
			held++
		}
	}
	// A record: its header (update time, mail count, ring head, touched
	// flag: 24 B), mail times, z row and mail block.
	slots, dim := int64(m.Cfg.Slots), int64(m.Cfg.EdgeDim)
	record := 24 + 8*slots + 4*(1+slots)*dim
	dense := int64(ds.NumNodes) * record
	occ := st.Occupancy()
	if occ.Records != held || occ.NodesWithMail != withMail || occ.FreeRecords != 0 || occ.Slabs == 0 {
		t.Fatalf("occupancy %+v, want %d records, %d with mail and no free records", occ, held, withMail)
	}
	live, slab := int64(held)*record, occ.Bytes/int64(occ.Slabs)
	if occ.Bytes < live || occ.Bytes-live >= slab {
		t.Fatalf("store holds %d B for %d records (%d B): slack past one partial %d-byte slab", occ.Bytes, held, live, slab)
	}
	if occ.Bytes*2 > dense {
		t.Fatalf("%d of %d nodes hold a record: %d B against %d B dense — the stream no longer leaves most nodes cold", held, ds.NumNodes, occ.Bytes, dense)
	}

	// Admission past the ID space: the dense layouts reallocated and copied
	// every mailbox and row here (67 MiB, 13–62 ms under the exclusive
	// store lock); now only the index grows. The store is measured on its
	// own, then EnsureNodes as a whole, which grows the graph's index too.
	// Bytes are the deterministic guard; the time is only logged — it read
	// 7–10 ms on a busy 2-core box against a bound of 5 — and is taken on a
	// heap that has been through a collection, as a serving process's has:
	// on pages the process never touched, faulting them in is most of the
	// cost.
	_ = m.SnapshotRuntime()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st.Grow(ds.NumNodes + 100)
	runtime.ReadMemStats(&m1)
	storeGrow := int64(m1.TotalAlloc - m0.TotalAlloc)
	if storeGrow*64 > dense {
		t.Fatalf("growing the store by 100 nodes allocated %d B; the dense layout was %d B", storeGrow, dense)
	}
	runtime.ReadMemStats(&m0)
	start := time.Now()
	m.EnsureNodes(ds.NumNodes + 100)
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	got := int64(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("%d of %d nodes hold a record (%d with mail, %d touched): %d B in %d slabs, dense %d B; EnsureNodes(+100): %v, %d B allocated past the store's %d B",
		held, ds.NumNodes, withMail, touched, occ.Bytes, occ.Slabs, dense, took, got, storeGrow)
	if got > dense/4 {
		t.Fatalf("EnsureNodes(+100) allocated %d B; the dense layout alone was %d B", got, dense)
	}
	if after := st.Occupancy(); after != occ {
		t.Fatalf("EnsureNodes changed occupancy: %+v -> %+v", occ, after)
	}
}
