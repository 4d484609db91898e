package tgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildChain(t *testing.T) *Graph {
	t.Helper()
	g := New(5)
	// Events: (0,1)@1, (1,2)@2, (0,1)@3, (2,3)@4, (1,4)@5
	g.AddEvent(Event{Src: 0, Dst: 1, Time: 1})
	g.AddEvent(Event{Src: 1, Dst: 2, Time: 2})
	g.AddEvent(Event{Src: 0, Dst: 1, Time: 3})
	g.AddEvent(Event{Src: 2, Dst: 3, Time: 4})
	g.AddEvent(Event{Src: 1, Dst: 4, Time: 5})
	return g
}

func TestAddEventAssignsIDs(t *testing.T) {
	g := buildChain(t)
	if g.NumEvents() != 5 {
		t.Fatalf("NumEvents=%d", g.NumEvents())
	}
	for i := 0; i < 5; i++ {
		if g.Event(int64(i)).ID != int64(i) {
			t.Fatalf("event %d has id %d", i, g.Event(int64(i)).ID)
		}
	}
}

func TestAddEventRangePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddEvent(Event{Src: 0, Dst: 5, Time: 1})
}

func TestDegreeTemporal(t *testing.T) {
	g := buildChain(t)
	if d := g.Degree(1, 0.5); d != 0 {
		t.Fatalf("degree(1, 0.5)=%d", d)
	}
	if d := g.Degree(1, 2.5); d != 2 {
		t.Fatalf("degree(1, 2.5)=%d", d)
	}
	if d := g.Degree(1, 10); d != 4 {
		t.Fatalf("degree(1, 10)=%d", d)
	}
}

func TestMostRecentNeighborsStrictlyBefore(t *testing.T) {
	g := buildChain(t)
	// At t=3, node 1 has interactions @1 (with 0) and @2 (with 2); the @3
	// event must be excluded (strictly before).
	got := g.MostRecentNeighbors(1, 3, 10, nil)
	if len(got) != 2 {
		t.Fatalf("got %d neighbors: %+v", len(got), got)
	}
	if got[0].Peer != 2 || got[0].Time != 2 {
		t.Fatalf("newest first expected peer 2@2, got %+v", got[0])
	}
	if got[1].Peer != 0 || got[1].Time != 1 {
		t.Fatalf("second expected peer 0@1, got %+v", got[1])
	}
}

func TestMostRecentNeighborsLimit(t *testing.T) {
	g := buildChain(t)
	got := g.MostRecentNeighbors(1, 100, 1, nil)
	if len(got) != 1 || got[0].Peer != 4 {
		t.Fatalf("want only newest (peer 4), got %+v", got)
	}
}

func TestKHopMostRecent(t *testing.T) {
	g := buildChain(t)
	hops := g.KHopMostRecent([]NodeID{0}, 10, 2, 2)
	if len(hops) != 2 {
		t.Fatalf("want 2 hops, got %d", len(hops))
	}
	// Hop 1 of node 0: two most recent interactions, both with node 1.
	if len(hops[0]) != 2 || hops[0][0].Peer != 1 || hops[0][1].Peer != 1 {
		t.Fatalf("hop1: %+v", hops[0])
	}
	// Hop 2: neighbors of node 1 (twice), 2 most recent each.
	if len(hops[1]) != 4 {
		t.Fatalf("hop2 size: %+v", hops[1])
	}
}

func TestStaticSnapshotDedup(t *testing.T) {
	g := buildChain(t)
	csr := g.StaticSnapshot(10)
	// Node 1 interacted with 0 (twice), 2, 4 → 3 distinct neighbors.
	if csr.Degree(1) != 3 {
		t.Fatalf("degree(1)=%d", csr.Degree(1))
	}
	nb := csr.Neighbors(1)
	if nb[0] != 0 || nb[1] != 2 || nb[2] != 4 {
		t.Fatalf("neighbors sorted: %+v", nb)
	}
	// Temporal cutoff: snapshot at t=2 has only the first event.
	early := g.StaticSnapshot(2)
	if early.Degree(1) != 1 || early.Degree(4) != 0 {
		t.Fatalf("early snapshot degrees: %d %d", early.Degree(1), early.Degree(4))
	}
}

func TestOutOfOrderInsertionKeepsListsSorted(t *testing.T) {
	g := New(3)
	g.AddEvent(Event{Src: 0, Dst: 1, Time: 5})
	g.AddEvent(Event{Src: 0, Dst: 2, Time: 2}) // arrives late
	g.AddEvent(Event{Src: 0, Dst: 1, Time: 4}) // arrives late
	got := g.MostRecentNeighbors(0, 10, 3, nil)
	times := []float64{got[0].Time, got[1].Time, got[2].Time}
	if times[0] != 5 || times[1] != 4 || times[2] != 2 {
		t.Fatalf("incidence order after out-of-order insert: %v", times)
	}
	if d := g.Degree(0, 4.5); d != 2 {
		t.Fatalf("degree after out-of-order insert: %d", d)
	}
}

func TestSelfLoopSingleIncidence(t *testing.T) {
	g := New(2)
	g.AddEvent(Event{Src: 1, Dst: 1, Time: 1})
	if d := g.Degree(1, 2); d != 1 {
		t.Fatalf("self-loop degree=%d", d)
	}
}

// Property: StaticSnapshot deduplicates to exactly the distinct pairs seen
// before the cutoff, with symmetric adjacency.
func TestStaticSnapshotProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := New(n)
		type pair struct{ a, b NodeID }
		want := map[pair]bool{}
		cutoff := 50.0
		for i := 0; i < 120; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			tm := rng.Float64() * 100
			g.AddEvent(Event{Src: u, Dst: v, Time: tm})
			if tm < cutoff {
				a, b := u, v
				if a > b {
					a, b = b, a
				}
				want[pair{a, b}] = true
			}
		}
		csr := g.StaticSnapshot(cutoff)
		got := map[pair]bool{}
		for v := 0; v < n; v++ {
			for _, u := range csr.Neighbors(NodeID(v)) {
				a, b := NodeID(v), u
				if a > b {
					a, b = b, a
				}
				got[pair{a, b}] = true
				// Symmetry (except self loops, stored once per side).
				if u != NodeID(v) {
					found := false
					for _, w := range csr.Neighbors(u) {
						if w == NodeID(v) {
							found = true
							break
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for p := range want {
			if !got[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: most-recent sampling returns events in strictly descending time
// order, all strictly before the query time, never more than k.
func TestMostRecentNeighborsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		tm := 0.0
		for i := 0; i < 200; i++ {
			tm += rng.Float64()
			g.AddEvent(Event{Src: NodeID(rng.Intn(n)), Dst: NodeID(rng.Intn(n)), Time: tm})
		}
		node := NodeID(rng.Intn(n))
		q := rng.Float64() * tm
		k := 1 + rng.Intn(8)
		got := g.MostRecentNeighbors(node, q, k, nil)
		if len(got) > k {
			return false
		}
		for i, inc := range got {
			if inc.Time >= q {
				return false
			}
			if i > 0 && got[i-1].Time < inc.Time {
				return false
			}
		}
		// Count check against brute force.
		want := 0
		for _, e := range g.EventLog() {
			if e.Time < q && (e.Src == node || e.Dst == node) {
				want++
			}
		}
		if want > k {
			want = k
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
