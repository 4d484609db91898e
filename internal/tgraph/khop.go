package tgraph

// KHopScratch holds the reusable buffers of a k-hop traversal so steady-state
// callers allocate nothing.
// The slices returned by a *Into call alias the scratch and stay valid only
// until the next call with the same scratch; callers that need the results to
// outlive that must copy, or use the allocating KHopMostRecent.
type KHopScratch struct {
	levels   [][]Incidence
	frontier []NodeID
}

// grow returns a per-hop output slice backed by the scratch, preserving the
// capacity of previously used level buffers.
func (sc *KHopScratch) grow(hops int) [][]Incidence {
	for len(sc.levels) < hops {
		sc.levels = append(sc.levels, nil)
	}
	return sc.levels[:hops]
}

// KHopMostRecentInto is g.KHopMostRecentInto(sc, …).
//
// Deprecated: kept only because the frozen benchmark/ladder.go calls this
// signature; the next benchmark PR should call the method and delete it.
func KHopMostRecentInto(g *Graph, sc *KHopScratch, seeds []NodeID, t float64, fanout, hops int) [][]Incidence {
	return g.KHopMostRecentInto(sc, seeds, t, fanout, hops)
}
