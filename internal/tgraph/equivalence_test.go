// The backend equivalence suite: every tgraph.Store implementation must be
// query-for-query bit-exact with the flat Graph when calls are serialized.
// testing/quick drives randomized event streams — duplicate timestamps,
// self-loops, out-of-order arrivals, interleaved Grow calls — through both
// backends (flat, sharded) and compares every query's answer exactly. This
// is the proof obligation docs/testing.md names for adding a backend.
package tgraph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"apan/internal/tgraph"
)

// backends builds one instance of every Store implementation over numNodes
// nodes. The sharded backend uses a small partition count so local indices
// exercise the n>>bits mapping.
func backends(numNodes int) map[string]tgraph.Store {
	return map[string]tgraph.Store{
		"flat":    tgraph.New(numNodes),
		"sharded": tgraph.NewSharded(numNodes, 4),
	}
}

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

// apply replays the stream (events + encoded Grow steps) into s.
func apply(s tgraph.Store, stream []tgraph.Event) {
	for _, ev := range stream {
		if ev.Src == -1 {
			s.Grow(int(ev.Dst))
			continue
		}
		s.AddEvent(ev)
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

// checkEquivalent replays one randomized stream into every backend and
// compares the full query surface against the flat reference.
func checkEquivalent(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const base, max = 16, 48
	stream := randomStream(rng, 300, base, max)
	stores := backends(base)
	for _, s := range stores {
		apply(s, stream)
	}
	ref := stores["flat"]

	maxT := 0.0
	for _, ev := range stream {
		if ev.Src != -1 && ev.Time > maxT {
			maxT = ev.Time
		}
	}

	for name, s := range stores {
		if name == "flat" {
			continue
		}
		if s.NumNodes() != ref.NumNodes() {
			t.Fatalf("%s: NumNodes %d vs %d", name, s.NumNodes(), ref.NumNodes())
		}
		if s.NumEvents() != ref.NumEvents() {
			t.Fatalf("%s: NumEvents %d vs %d", name, s.NumEvents(), ref.NumEvents())
		}
		sameEvents(t, name+": EventLog", s.EventLog(), ref.EventLog())
		for id := int64(0); id < int64(ref.NumEvents()); id += 17 {
			if a, b := *s.Event(id), *ref.Event(id); a.ID != b.ID || a.Time != b.Time {
				t.Fatalf("%s: Event(%d): %+v vs %+v", name, id, a, b)
			}
		}

		// 60 random query points: mixed nodes, times (incl. exact event
		// times, which exercise the strictly-before boundary), fanouts.
		qrng := rand.New(rand.NewSource(seed + 1))
		for q := 0; q < 60; q++ {
			n := tgraph.NodeID(qrng.Intn(ref.NumNodes()))
			var qt float64
			if qrng.Intn(2) == 0 && ref.NumEvents() > 0 {
				qt = ref.Event(int64(qrng.Intn(ref.NumEvents()))).Time // exact boundary
			} else {
				qt = qrng.Float64() * (maxT + 1)
			}
			k := 1 + qrng.Intn(6)

			if a, b := s.Degree(n, qt), ref.Degree(n, qt); a != b {
				t.Fatalf("%s: Degree(%d,%g) %d vs %d", name, n, qt, a, b)
			}
			sameIncidences(t, name+": MostRecentNeighbors",
				s.MostRecentNeighbors(n, qt, k, nil), ref.MostRecentNeighbors(n, qt, k, nil))

			// Seeded rng per backend: Floyd's algorithm must consume the
			// stream identically for answers to agree.
			ra := rand.New(rand.NewSource(seed + int64(q)))
			rb := rand.New(rand.NewSource(seed + int64(q)))
			sameIncidences(t, name+": UniformNeighbors",
				s.UniformNeighbors(ra, n, qt, k, nil), ref.UniformNeighbors(rb, n, qt, k, nil))

			seeds := []tgraph.NodeID{n, tgraph.NodeID(qrng.Intn(ref.NumNodes()))}
			ha := s.KHopMostRecent(seeds, qt, k, 2)
			hb := ref.KHopMostRecent(seeds, qt, k, 2)
			for h := range ha {
				sameIncidences(t, name+": KHopMostRecent", ha[h], hb[h])
			}

			lo := qrng.Float64() * maxT
			hi := lo + qrng.Float64()*maxT
			sameEvents(t, name+": EventsBetween", s.EventsBetween(lo, hi), ref.EventsBetween(lo, hi))
		}

		ca, cb := s.StaticSnapshot(maxT/2), ref.StaticSnapshot(maxT/2)
		if ca.NumNodes != cb.NumNodes || len(ca.ColIdx) != len(cb.ColIdx) {
			t.Fatalf("%s: StaticSnapshot shape", name)
		}
		for i := range ca.RowPtr {
			if ca.RowPtr[i] != cb.RowPtr[i] {
				t.Fatalf("%s: StaticSnapshot RowPtr[%d]", name, i)
			}
		}
		for i := range ca.ColIdx {
			if ca.ColIdx[i] != cb.ColIdx[i] || ca.LastEvent[i] != cb.LastEvent[i] {
				t.Fatalf("%s: StaticSnapshot edge %d", name, i)
			}
		}
	}
}

// TestBackendEquivalenceQuick is the property: for every stream seed, all
// backends answer the whole query surface identically to the flat store.
func TestBackendEquivalenceQuick(t *testing.T) {
	count := 25
	if testing.Short() {
		count = 8
	}
	property := func(seed int64) bool {
		checkEquivalent(t, seed) // fails the test with a precise diff
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

// TestBackendEquivalenceAfterReset proves Reset re-initializes in place:
// replaying a second stream after Reset must agree across backends, and
// log slices captured before the Reset must keep their contents.
func TestBackendEquivalenceAfterReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream1 := randomStream(rng, 200, 16, 48)
	stream2 := randomStream(rng, 200, 16, 48)
	stores := backends(16)
	for _, s := range stores {
		apply(s, stream1)
	}
	ref := stores["flat"]
	captured := map[string][]tgraph.Event{}
	for name, s := range stores {
		captured[name] = s.EventLog()[:s.NumEvents()]
	}
	want := append([]tgraph.Event(nil), captured["flat"]...)

	for _, s := range stores {
		s.Reset(16)
		if s.NumEvents() != 0 || s.NumNodes() != 16 {
			t.Fatalf("Reset left %d events, %d nodes", s.NumEvents(), s.NumNodes())
		}
		apply(s, stream2)
	}
	for name, s := range stores {
		if name == "flat" {
			continue
		}
		sameEvents(t, name+": post-reset EventLog", s.EventLog(), ref.EventLog())
	}
	// The pre-reset capture is still intact: Reset replaced the log, it did
	// not overwrite the old backing array.
	for name, cap := range captured {
		sameEvents(t, name+": captured prefix after Reset", cap, want)
	}
}
