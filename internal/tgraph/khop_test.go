// The scratch-reuse k-hop path (KHopMostRecentInto) must answer every query
// bit-identically to the allocating KHopMostRecent on every backend, charge
// the same accounting through the gdb wrapper, and allocate nothing once
// the scratch is warm — that is what lets the mail propagator run one
// traversal per event without garbage.
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

// TestKHopIntoAccountingParity: the gdb.DB wrapper must charge the Into
// path exactly like the allocating path — same query, item and
// simulated-latency counters for the same traversal, on every backend.
func TestKHopIntoAccountingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	stream := randomStream(rng, 300, 16, 48)
	for name, s := range backends(16) {
		apply(s, stream)
		db := gdb.New(s)
		db.Latency = gdb.PerItem(2*time.Millisecond, time.Microsecond)

		seeds := []tgraph.NodeID{2, 9}
		db.KHopMostRecent(seeds, 150, 6, 2)
		want := db.Stats()
		if want.Queries == 0 || want.Items == 0 || want.Simulated == 0 {
			t.Fatalf("%s: the allocating traversal charged nothing (%+v); the test proves nothing", name, want)
		}

		db.ResetStats()
		var sc tgraph.KHopScratch
		db.KHopMostRecentInto(&sc, seeds, 150, 6, 2)
		if got := db.Stats(); got != want {
			t.Errorf("%s: DB accounting: Into path %+v, allocating path %+v", name, got, want)
		}
	}
}
