// The scratch-reuse k-hop path (KHopMostRecentInto) must answer every query
// bit-identically to the allocating KHopMostRecent on every backend and
// allocate nothing once the scratch is warm; the gdb wrapper's frontier
// gather, which the mail propagator expands a batch with, must answer and
// charge what the store's own traversal implies.
package tgraph_test

import (
	"math/rand"
	"testing"
	"time"

	"apan/internal/gdb"
	"apan/internal/tgraph"
)

// TestKHopIntoMatchesAllocating drives randomized streams through every
// backend and compares the scratch path against the allocating path on each,
// reusing one scratch across all queries so stale level contents from prior
// queries would surface as mismatches.
func TestKHopIntoMatchesAllocating(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const base, max = 16, 48
		stream := randomStream(rng, 300, base, max)
		stores := backends(base)
		for name, s := range stores {
			apply(s, stream)
			maxT := 0.0
			for _, ev := range stream {
				if ev.Src != -1 && ev.Time > maxT {
					maxT = ev.Time
				}
			}
			var sc tgraph.KHopScratch
			qrng := rand.New(rand.NewSource(seed + 1))
			for q := 0; q < 60; q++ {
				seeds := []tgraph.NodeID{
					tgraph.NodeID(qrng.Intn(s.NumNodes())),
					tgraph.NodeID(qrng.Intn(s.NumNodes())),
				}
				qt := qrng.Float64() * (maxT + 1)
				fanout := 1 + qrng.Intn(6)
				hops := 1 + qrng.Intn(3)
				want := s.KHopMostRecent(seeds, qt, fanout, hops)
				got := s.KHopMostRecentInto(&sc, seeds, qt, fanout, hops)
				if len(got) != len(want) {
					t.Fatalf("%s seed %d: %d hops vs %d", name, seed, len(got), len(want))
				}
				for h := range want {
					sameIncidences(t, name+": KHopMostRecentInto", got[h], want[h])
				}
			}
		}
	}
}

// TestKHopIntoZeroAlloc: once the scratch has seen the traversal shape, the
// flat and sharded Into paths allocate nothing per call.
func TestKHopIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream := randomStream(rng, 500, 16, 48)
	for name, s := range backends(16) {
		apply(s, stream)
		var sc tgraph.KHopScratch
		seeds := []tgraph.NodeID{3, 11}
		s.KHopMostRecentInto(&sc, seeds, 200, 8, 3) // warm the scratch
		allocs := testing.AllocsPerRun(100, func() {
			s.KHopMostRecentInto(&sc, seeds, 200, 8, 3)
		})
		if allocs != 0 {
			t.Errorf("%s: KHopMostRecentInto allocates %v per call after warm-up", name, allocs)
		}
	}
}

// TestKHopIntoAccountingParity: a k-hop expansion through gdb.DB's frontier
// gather — one call per hop, the propagator's protocol — must answer what the
// store's own traversal answers and charge what a per-traversal gather does:
// one query per frontier node, the hop's items, one round trip per hop.
func TestKHopIntoAccountingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	stream := randomStream(rng, 300, 16, 48)
	for name, s := range backends(16) {
		apply(s, stream)
		db := gdb.New(s)
		db.Latency = gdb.PerItem(2*time.Millisecond, time.Microsecond)

		seeds := []tgraph.NodeID{2, 9}
		const qt, fanout, hops = 150, 6, 2
		want := s.KHopMostRecent(seeds, qt, fanout, hops)
		var wantStats gdb.Stats
		frontier := len(seeds)
		for _, hop := range want {
			wantStats.Queries += int64(frontier)
			wantStats.Items += int64(len(hop))
			wantStats.Simulated += db.Latency(len(hop))
			frontier = len(hop)
		}
		if wantStats.Queries == 0 || wantStats.Items == 0 {
			t.Fatalf("%s: the traversal reached nothing (%+v); the test proves nothing", name, wantStats)
		}

		var lvl []tgraph.Incidence
		var times []float64
		for h := 0; h < hops; h++ {
			times = times[:0]
			for range seeds {
				times = append(times, qt)
			}
			lvl, _ = db.MostRecentFrontier(seeds, times, fanout, lvl[:0], nil)
			sameIncidences(t, name+": frontier hop", lvl, want[h])
			seeds = seeds[:0]
			for _, inc := range lvl {
				seeds = append(seeds, inc.Peer)
			}
		}
		if got := db.Stats(); got != wantStats {
			t.Errorf("%s: DB accounting: frontier gathers %+v, per-traversal gather %+v", name, got, wantStats)
		}
	}
}
