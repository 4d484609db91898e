// Randomized streams for the store-level tests: duplicate timestamps,
// self-loops, out-of-order arrivals and interleaved Grow calls.
package tgraph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"apan/internal/tgraph"
)

// randomStream generates n events over a node space that starts at base
// nodes and is grown mid-stream: ~10% self-loops, ~30% duplicate
// timestamps, ~10% slightly out-of-order times. Grow steps are encoded as
// events with Src == -1 and the new size in Dst.
func randomStream(rng *rand.Rand, n, base, max int) []tgraph.Event {
	events := make([]tgraph.Event, 0, n)
	nodes := base
	t := 0.0
	for i := 0; i < n; i++ {
		if nodes < max && rng.Intn(20) == 0 {
			nodes += 1 + rng.Intn(max-nodes)
			events = append(events, tgraph.Event{Src: -1, Dst: tgraph.NodeID(nodes)})
			continue
		}
		switch rng.Intn(10) {
		case 0: // duplicate timestamp
		case 1: // out-of-order: step back a little
			t -= rng.Float64()
			if t < 0 {
				t = 0
			}
		default:
			t += rng.Float64()
		}
		src := tgraph.NodeID(rng.Intn(nodes))
		dst := tgraph.NodeID(rng.Intn(nodes))
		if rng.Intn(10) == 0 {
			dst = src // self-loop
		}
		feat := []float32{rng.Float32(), rng.Float32()}
		events = append(events, tgraph.Event{Src: src, Dst: dst, Time: t, Feat: feat, Label: int8(rng.Intn(2))})
	}
	return events
}

// apply replays the stream (events + encoded Grow steps) into g.
func apply(g *tgraph.Graph, stream []tgraph.Event) {
	for _, ev := range stream {
		if ev.Src == -1 {
			g.Grow(int(ev.Dst))
			continue
		}
		g.AddEvent(ev)
	}
}

func sameIncidences(t *testing.T, what string, a, b []tgraph.Incidence) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: len %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: entry %d: %+v vs %+v", what, i, a[i], b[i])
		}
	}
}

func sameEvents(t *testing.T, what string, a, b []tgraph.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: len %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Src != b[i].Src || a[i].Dst != b[i].Dst ||
			a[i].Time != b[i].Time || a[i].Label != b[i].Label {
			t.Fatalf("%s: entry %d: %+v vs %+v", what, i, a[i], b[i])
		}
	}
}

// TestBackendEquivalenceAfterReset proves Reset re-initializes in place:
// a second stream replayed after Reset leaves the log a fresh graph would
// hold, and a log slice captured before the Reset keeps its contents.
func TestBackendEquivalenceAfterReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream1 := randomStream(rng, 200, 16, 48)
	stream2 := randomStream(rng, 200, 16, 48)
	g := tgraph.New(16)
	apply(g, stream1)
	captured := g.EventLog()[:g.NumEvents()]
	want := append([]tgraph.Event(nil), captured...)

	g.Reset(16, nil)
	if g.NumEvents() != 0 || g.NumNodes() != 16 {
		t.Fatalf("Reset left %d events, %d nodes", g.NumEvents(), g.NumNodes())
	}
	apply(g, stream2)
	fresh := tgraph.New(16)
	apply(fresh, stream2)
	sameEvents(t, "post-reset EventLog", g.EventLog(), fresh.EventLog())
	// The pre-reset capture is still intact: Reset replaced the log, it did
	// not overwrite the old backing array.
	sameEvents(t, "captured prefix after Reset", captured, want)
}

// TestShardedCopyOut is the aliasing regression: results returned by
// KHopMostRecent and MostRecentNeighbors, and a sub-slice of EventLog, must
// stay bit-identical after subsequent appends — k-hop levels and neighbor
// lists because they are copied out of adjacency storage, the log slice
// because log entries are immutable even when the backing array is still
// live (tgraph.EventLog). The test keeps its name from when a sharded graph store
// ran it too; the subtest is named for the flat store.
func TestShardedCopyOut(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		g := tgraph.New(16)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			g.AddEvent(tgraph.Event{
				Src:  tgraph.NodeID(rng.Intn(16)),
				Dst:  tgraph.NodeID(rng.Intn(16)),
				Time: float64(i),
			})
		}
		hops := g.KHopMostRecent([]tgraph.NodeID{1, 2}, 150, 5, 2)
		between := g.EventLog()[50:120]
		mrn := g.MostRecentNeighbors(3, 150, 5, nil)

		var hopsCopy [][]tgraph.Incidence
		for _, level := range hops {
			hopsCopy = append(hopsCopy, append([]tgraph.Incidence(nil), level...))
		}
		betweenCopy := append([]tgraph.Event(nil), between...)
		mrnCopy := append([]tgraph.Incidence(nil), mrn...)

		// Append events whose times interleave the captured ranges, so a
		// store that aliased internal storage would shift or overwrite the
		// captured entries.
		for i := 0; i < 500; i++ {
			g.AddEvent(tgraph.Event{
				Src:  tgraph.NodeID(rng.Intn(16)),
				Dst:  tgraph.NodeID(rng.Intn(16)),
				Time: rng.Float64() * 200,
			})
		}

		for h := range hops {
			sameIncidences(t, "KHop level after append", hops[h], hopsCopy[h])
		}
		sameEvents(t, "EventLog slice after append", between, betweenCopy)
		sameIncidences(t, "MostRecentNeighbors after append", mrn, mrnCopy)
	})
}

// TestResetRebuildMatchesAddEvent: Reset(n, events) leaves the graph that
// adding the events one by one to an empty graph leaves — the same EventLog
// and the same MostRecentNeighbors for every node at every event time —
// over streams with regressing and duplicate times and self-loops. Appends
// after the rebuild, which outgrow the capped lists, match appends after
// the loop, and a log slice captured before the rebuild keeps its contents.
func TestResetRebuildMatchesAddEvent(t *testing.T) {
	const nodes = 24
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := randomStream(rng, 1+rng.Intn(300), nodes, nodes)
		split := rng.Intn(len(stream) + 1)
		want := tgraph.New(nodes)
		apply(want, stream[:split])
		g := tgraph.New(nodes)
		apply(g, randomStream(rng, 40, nodes, nodes))
		captured := g.EventLog()
		kept := append([]tgraph.Event(nil), captured...)

		g.Reset(nodes, stream[:split])
		for _, gr := range []*tgraph.Graph{g, want} {
			apply(gr, stream[split:])
		}
		a, b := g.EventLog(), want.EventLog()
		if len(a) != len(b) || g.NumNodes() != nodes {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || a[i].Time != b[i].Time ||
				a[i].Label != b[i].Label || &a[i].Feat[0] != &b[i].Feat[0] {
				return false
			}
		}
		var ga, gb []tgraph.Incidence
		for i := range b {
			for _, k := range []int{2, len(b)} {
				for n := tgraph.NodeID(0); n < nodes; n++ {
					ga = g.MostRecentNeighbors(n, b[i].Time, k, ga[:0])
					gb = want.MostRecentNeighbors(n, b[i].Time, k, gb[:0])
					if len(ga) != len(gb) {
						return false
					}
					for j := range ga {
						if ga[j] != gb[j] {
							return false
						}
					}
				}
			}
		}
		for i := range kept {
			if captured[i].ID != kept[i].ID || captured[i].Src != kept[i].Src || captured[i].Time != kept[i].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestResetRebuildAllocs: rebuilding a graph from a runtime image allocates
// a fixed number of times — the degree count, the log, the list index and
// one backing array for every incidence list — whatever the event count.
func TestResetRebuildAllocs(t *testing.T) {
	const nodes = 64
	rng := rand.New(rand.NewSource(5))
	g := tgraph.New(nodes)
	for _, n := range []int{10, 4000} {
		events := randomStream(rng, n, nodes, nodes)
		if a := testing.AllocsPerRun(50, func() { g.Reset(nodes, events) }); a > 4 {
			t.Fatalf("rebuilding from %d events allocated %.0f times, want ≤ 4", n, a)
		}
	}
}
