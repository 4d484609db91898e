package core

import (
	"testing"

	"apan/internal/tgraph"
)

// evEvent builds a zero-featured event for eviction tests.
func evEvent(dim int, src, dst tgraph.NodeID, t float64) tgraph.Event {
	return tgraph.Event{Src: src, Dst: dst, Time: t, Feat: make([]float32, dim)}
}

// applyEvents pushes events through the serving path one batch at a time.
func applyEvents(t *testing.T, m *Model, events []tgraph.Event, bs int) {
	t.Helper()
	for lo := 0; lo < len(events); lo += bs {
		hi := lo + bs
		if hi > len(events) {
			hi = len(events)
		}
		applyBatch(m, events[lo:hi])
	}
}

func TestEvictionBudgetEnforced(t *testing.T) {
	cfg := tinyConfig(64)
	cfg.EvictMaxNodes = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Touch nodes 0..15 in order: far more than the 4-node budget.
	var events []tgraph.Event
	for i := 0; i < 8; i++ {
		events = append(events, evEvent(cfg.EdgeDim, tgraph.NodeID(2*i), tgraph.NodeID(2*i+1), float64(i+1)))
	}
	applyEvents(t, m, events, 2)

	st, ok := m.EvictionStats()
	if !ok {
		t.Fatal("eviction stats unavailable with EvictMaxNodes set")
	}
	if st.Tracked > st.Budget {
		t.Fatalf("tracked %d exceeds budget %d", st.Tracked, st.Budget)
	}
	if st.Evicted == 0 {
		t.Fatal("expected evictions with 16 touched nodes and budget 4")
	}
	if st.Tracked+st.ColdSet == 0 {
		t.Fatal("expected tracked/cold accounting")
	}
	// The earliest-touched nodes must be cold again: untouched state, empty
	// mailbox — indistinguishable from never-seen nodes.
	for _, n := range []tgraph.NodeID{0, 1, 2, 3} {
		if m.State().Touched(n) {
			t.Fatalf("node %d should be evicted (untouched)", n)
		}
		if m.Mailbox().Len(n) != 0 {
			t.Fatalf("node %d mailbox should be empty after eviction", n)
		}
	}
	// The most recently touched nodes stay warm.
	for _, n := range []tgraph.NodeID{12, 13, 14, 15} {
		if !m.State().Touched(n) {
			t.Fatalf("node %d should still be warm", n)
		}
	}
}

// TestEvictionUnderBudgetDigestExact is the acceptance bound for checkpoint
// and replay compatibility: when the budget is never exceeded, tracking is
// pure bookkeeping and the runtime digest matches an eviction-disabled model
// bit for bit.
func TestEvictionUnderBudgetDigestExact(t *testing.T) {
	d := tinyData(1)
	events := d.Events[:300]

	run := func(budget int) uint64 {
		cfg := tinyConfig(d.NumNodes)
		cfg.EvictMaxNodes = budget
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applyEvents(t, m, events, cfg.BatchSize)
		return m.RuntimeDigest()
	}
	off := run(0)                // eviction disabled
	under := run(d.NumNodes + 1) // enabled, budget never binds
	if off != under {
		t.Fatalf("digest diverged with non-binding budget: %x vs %x", off, under)
	}
}

// TestEvictionDeterministic re-runs the same over-budget stream twice and
// demands identical digests and identical eviction counters — the property
// that makes WAL replay through ReplayBatch reconstruct an evicting run.
func TestEvictionDeterministic(t *testing.T) {
	d := tinyData(2)
	events := d.Events[:300]

	run := func() (uint64, EvictionStats) {
		cfg := tinyConfig(d.NumNodes)
		cfg.EvictMaxNodes = 8
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applyEvents(t, m, events, cfg.BatchSize)
		st, _ := m.EvictionStats()
		return m.RuntimeDigest(), st
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 {
		t.Fatalf("evicting runs diverged: %x vs %x", d1, d2)
	}
	if s1 != s2 {
		t.Fatalf("eviction counters diverged: %+v vs %+v", s1, s2)
	}
	if s1.Evicted == 0 {
		t.Fatal("stream should exceed an 8-node budget")
	}
}

func TestReadmitWarmStart(t *testing.T) {
	cfg := tinyConfig(32)
	cfg.EvictMaxNodes = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dim := cfg.EdgeDim
	// Give node 0 graph history with node 1, then blow the budget so node 0
	// is evicted.
	warmup := []tgraph.Event{
		evEvent(dim, 0, 1, 1),
		evEvent(dim, 2, 3, 2),
		evEvent(dim, 4, 5, 3),
	}
	applyEvents(t, m, warmup, 1)
	if m.State().Touched(0) {
		t.Fatal("node 0 should be evicted before re-admission")
	}

	// Re-admission warms node 0 from its most recent neighbor (node 1).
	ev := evEvent(dim, 0, 6, 4)
	n := m.ReadmitBatch([]tgraph.Event{ev})
	if n != 1 {
		t.Fatalf("readmitted %d nodes, want 1", n)
	}
	if !m.State().Touched(0) {
		t.Fatal("node 0 should be warm after re-admission")
	}
	z := m.State().Get(0)
	want := m.State().Get(1)
	nonzero := false
	for i := range z {
		if z[i] != 0 {
			nonzero = true
		}
	}
	// Node 1 may itself be evicted (budget 2); only demand the neighbor-mean
	// identity when the source of warmth is still warm.
	if m.State().Touched(1) {
		for i := range z {
			if z[i] != want[i] {
				t.Fatalf("warm start should equal the single neighbor's state at dim %d: %v vs %v", i, z[i], want[i])
			}
		}
		if !nonzero {
			t.Fatal("warm start from a warm neighbor should be nonzero")
		}
	}
	st, _ := m.EvictionStats()
	if st.Readmitted != 1 {
		t.Fatalf("Readmitted = %d, want 1", st.Readmitted)
	}
	// Second call is idempotent: node 0 is no longer in the cold set.
	if n := m.ReadmitBatch([]tgraph.Event{ev}); n != 0 {
		t.Fatalf("duplicate readmit warmed %d nodes, want 0", n)
	}
}

func TestEvictionResetClearsTracking(t *testing.T) {
	cfg := tinyConfig(32)
	cfg.EvictMaxNodes = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := []tgraph.Event{
		evEvent(cfg.EdgeDim, 0, 1, 1),
		evEvent(cfg.EdgeDim, 2, 3, 2),
		evEvent(cfg.EdgeDim, 4, 5, 3),
	}
	applyEvents(t, m, events, 1)
	m.ResetRuntime()
	st, _ := m.EvictionStats()
	if st.Tracked != 0 || st.ColdSet != 0 {
		t.Fatalf("reset should drop tracking, got %+v", st)
	}
}

// TestEvictionBoundsMailBlocks: eviction bounds mail bytes, not just a
// counter. Cycling ten budgets' worth of distinct nodes through
// evict/readmit never holds more than the budget plus one batch's blocks,
// and after the first lap the free lists feed every delivery: no block is
// allocated again.
func TestEvictionBoundsMailBlocks(t *testing.T) {
	const budget, pairs, batch = 32, 160, 8 // 320 distinct nodes; 16 touched per batch
	cfg := tinyConfig(2 * pairs)
	cfg.EvictMaxNodes = budget
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint pairs (2i, 2i+1): a node's only neighbour is its partner, so
	// every mailed node is an LRU-tracked endpoint. Budget and batch are
	// multiples of the shard count, so per-shard free lists stay in step.
	var lap []tgraph.Event
	for i := 0; i < pairs; i++ {
		lap = append(lap, evEvent(cfg.EdgeDim, tgraph.NodeID(2*i), tgraph.NodeID(2*i+1), 0))
	}
	held := 0
	for l := 0; l < 3; l++ {
		for lo := 0; lo < pairs; lo += batch {
			for i := range lap[lo : lo+batch] {
				lap[lo+i].Time = float64(l*pairs + lo + i + 1)
			}
			m.ReadmitBatch(lap[lo : lo+batch])
			applyEvents(t, m, lap[lo:lo+batch], batch)
			occ := m.Mailbox().Occupancy()
			if occ.LiveBlocks > budget || occ.NodesWithMail != occ.LiveBlocks {
				t.Fatalf("lap %d batch %d: %+v with budget %d", l, lo/batch, occ, budget)
			}
			if now := occ.LiveBlocks + occ.FreeBlocks; now > budget+2*batch {
				t.Fatalf("lap %d batch %d: holds %d blocks, want ≤ %d", l, lo/batch, now, budget+2*batch)
			} else if l > 0 && now != held {
				t.Fatalf("lap %d batch %d: held blocks moved %d -> %d in steady state", l, lo/batch, held, now)
			} else {
				held = now
			}
		}
	}
	if st, _ := m.EvictionStats(); st.Readmitted == 0 {
		t.Fatal("no node was re-admitted: the cycle never reused a mailbox")
	}
}
