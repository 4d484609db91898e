// Package tgraph implements the continuous-time dynamic graph (CTDG)
// storage engine: an append-only temporal event log with per-node
// time-ordered incidence lists, most-recent temporal neighbor sampling,
// k-hop subgraph queries, and a static snapshot view for the static
// baselines. Graph does no locking of its own; core.Model serializes every
// access behind its writer lock (applyMu).
package tgraph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node in the graph.
type NodeID = int32

// Event is one temporal interaction (v_i, v_j, e_ij, t), optionally labeled.
type Event struct {
	ID    int64 // position in the global log
	Src   NodeID
	Dst   NodeID
	Time  float64
	Feat  []float32
	Label int8 // -1 unlabeled, else 0/1
}

// Incidence is one entry in a node's temporal adjacency list.
type Incidence struct {
	Peer  NodeID
	Event int64
	Time  float64
}

// Graph is the CTDG store. Per-node incidence lists are kept sorted by
// timestamp even under out-of-order insertion; the global log records
// arrival order.
// Graph is not safe for concurrent mutation; the async pipeline serializes
// writers.
type Graph struct {
	numNodes int
	events   []Event
	adj      [][]Incidence
}

// New creates an empty graph over numNodes nodes.
func New(numNodes int) *Graph {
	return &Graph{numNodes: numNodes, adj: make([][]Incidence, numNodes)}
}

// NumNodes returns the node-set size.
func (g *Graph) NumNodes() int { return g.numNodes }

// Grow extends the node-ID space to n, so events touching newly admitted
// nodes pass AddEvent's range check. Existing adjacency is preserved; no-op
// when n ≤ NumNodes. Like all Graph mutation, Grow requires external
// serialization against concurrent use.
func (g *Graph) Grow(n int) {
	if n <= g.numNodes {
		return
	}
	// append reuses spare capacity, so repeated small growths amortize to
	// O(n) total copying rather than O(n²).
	g.adj = append(g.adj, make([][]Incidence, n-g.numNodes)...)
	g.numNodes = n
}

// Reset re-initializes g to an empty graph over numNodes nodes, in place:
// core keeps the same *Graph across runtime resets and checkpoint loads. The
// old event log's backing array is left untouched, so previously captured
// EventLog slices keep their contents.
func (g *Graph) Reset(numNodes int) {
	g.numNodes = numNodes
	g.events = nil
	g.adj = make([][]Incidence, numNodes)
}

// NumEvents returns the number of inserted events.
func (g *Graph) NumEvents() int { return len(g.events) }

// EventLog returns the global event log. The log is append-only and events
// are immutable once inserted, so a prefix captured while writers are
// quiesced stays a valid consistent snapshot even as later events are
// appended (an append that reallocates leaves the old backing array
// untouched) — core's runtime image relies on this to capture the graph in
// O(1) instead of copying the history. Callers must treat the slice as
// read-only.
func (g *Graph) EventLog() []Event { return g.events }

// Event returns the stored event with the given log id.
func (g *Graph) Event(id int64) *Event { return &g.events[id] }

// AddEvent appends e to the log and to both endpoints' incidence lists,
// returning the assigned log id. Interactions are stored undirected, as the
// mail propagation and temporal aggregation of all CTDG models treat them.
//
// Incidence lists stay time-sorted even when events arrive slightly out of
// order (unavoidable in distributed streams, §3.6): a backward insertion
// pass restores order, costing O(1) amortized for local disorder. The
// global log keeps arrival order.
func (g *Graph) AddEvent(e Event) int64 {
	if e.Src < 0 || int(e.Src) >= g.numNodes || e.Dst < 0 || int(e.Dst) >= g.numNodes {
		panic(fmt.Sprintf("tgraph: event endpoints %d-%d out of range [0,%d)", e.Src, e.Dst, g.numNodes))
	}
	id := int64(len(g.events))
	e.ID = id
	g.events = append(g.events, e)
	g.insertIncidence(e.Src, Incidence{Peer: e.Dst, Event: id, Time: e.Time})
	if e.Dst != e.Src {
		g.insertIncidence(e.Dst, Incidence{Peer: e.Src, Event: id, Time: e.Time})
	}
	return id
}

// insertIncidence appends inc to n's list, shifting it backwards while an
// earlier entry has a later timestamp.
func (g *Graph) insertIncidence(n NodeID, inc Incidence) {
	lst := append(g.adj[n], inc)
	for i := len(lst) - 1; i > 0 && lst[i-1].Time > lst[i].Time; i-- {
		lst[i-1], lst[i] = lst[i], lst[i-1]
	}
	g.adj[n] = lst
}

// Degree returns the number of interactions of n strictly before t.
func (g *Graph) Degree(n NodeID, t float64) int {
	return g.searchBefore(n, t)
}

// searchBefore returns the count of incidences of n with Time < t.
func (g *Graph) searchBefore(n NodeID, t float64) int {
	lst := g.adj[n]
	return sort.Search(len(lst), func(i int) bool { return lst[i].Time >= t })
}

// MostRecentNeighbors appends to out the up-to-k most recent interactions of
// n strictly before time t, newest first. This is the paper's sampling
// strategy (§3.5, "most-recent neighbor sampling").
func (g *Graph) MostRecentNeighbors(n NodeID, t float64, k int, out []Incidence) []Incidence {
	hi := g.searchBefore(n, t)
	lo := hi - k
	if lo < 0 {
		lo = 0
	}
	for i := hi - 1; i >= lo; i-- {
		out = append(out, g.adj[n][i])
	}
	return out
}

// KHopMostRecent returns the temporal neighborhood of the seed nodes: for
// each hop h (1-based), the set of (node, incidence) pairs reached by
// most-recent sampling with the given fan-out. Nodes can repeat across hops;
// dedup is the caller's concern (the mail propagator wants multiplicity for
// its mean reduction).
func (g *Graph) KHopMostRecent(seeds []NodeID, t float64, fanout, hops int) [][]Incidence {
	frontier := seeds
	out := make([][]Incidence, hops)
	var scratch []Incidence
	for h := 0; h < hops; h++ {
		scratch = scratch[:0]
		for _, n := range frontier {
			scratch = g.MostRecentNeighbors(n, t, fanout, scratch)
		}
		out[h] = append([]Incidence(nil), scratch...)
		next := make([]NodeID, len(out[h]))
		for i, inc := range out[h] {
			next[i] = inc.Peer
		}
		frontier = next
	}
	return out
}

// KHopMostRecentInto is KHopMostRecent building each hop directly into the
// scratch's level buffers — identical incidences in identical order, no
// per-call allocation once the scratch is warm. See KHopScratch for the
// result lifetime.
func (g *Graph) KHopMostRecentInto(sc *KHopScratch, seeds []NodeID, t float64, fanout, hops int) [][]Incidence {
	out := sc.grow(hops)
	frontier := seeds
	for h := 0; h < hops; h++ {
		lvl := out[h][:0]
		for _, n := range frontier {
			lvl = g.MostRecentNeighbors(n, t, fanout, lvl)
		}
		out[h] = lvl
		sc.frontier = sc.frontier[:0]
		for _, inc := range lvl {
			sc.frontier = append(sc.frontier, inc.Peer)
		}
		frontier = sc.frontier
	}
	return out
}

// CSR is a compact static adjacency snapshot used by the static baselines
// (GAT, SAGE, GCN, random walks). Edges are deduplicated and undirected.
type CSR struct {
	NumNodes int
	RowPtr   []int32
	ColIdx   []NodeID
}

// Degree returns the static degree of n.
func (c *CSR) Degree(n NodeID) int { return int(c.RowPtr[n+1] - c.RowPtr[n]) }

// Neighbors returns the static neighbor list of n.
func (c *CSR) Neighbors(n NodeID) []NodeID { return c.ColIdx[c.RowPtr[n]:c.RowPtr[n+1]] }

// StaticSnapshot builds the deduplicated undirected graph of all events with
// Time < t, each node's neighbors sorted by id.
func (g *Graph) StaticSnapshot(t float64) *CSR {
	csr := &CSR{NumNodes: g.numNodes, RowPtr: make([]int32, g.numNodes+1)}
	for n := 0; n < g.numNodes; n++ {
		start := len(csr.ColIdx)
		csr.RowPtr[n] = int32(start)
		for _, inc := range g.adj[n][:g.searchBefore(NodeID(n), t)] {
			csr.ColIdx = append(csr.ColIdx, inc.Peer)
		}
		peers := csr.ColIdx[start:]
		slices.Sort(peers)
		csr.ColIdx = csr.ColIdx[:start+len(slices.Compact(peers))]
	}
	csr.RowPtr[g.numNodes] = int32(len(csr.ColIdx))
	return csr
}
