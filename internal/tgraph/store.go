package tgraph

import "math/rand"

// Store is the pluggable temporal-graph backend interface: the exact query
// surface core.Model and the baselines consume. Two implementations ship:
//
//   - *Graph   — the flat in-process store (not concurrency-safe; callers
//     serialize, historically behind core's graphMu),
//   - *Sharded — hash-partitioned adjacency with per-partition RWMutexes
//     (concurrency-safe; concurrent k-hop gathers and appends touching
//     disjoint partitions proceed in parallel).
//
// Every implementation must be query-for-query bit-exact with *Graph when
// calls are serialized: embeddings depend only on what the store returns, so
// equal answers force equal scores and equal RuntimeDigests. The
// testing/quick equivalence suite (equivalence_test.go) and the scenario
// harness's backend_parity invariant enforce this; docs/testing.md describes
// the obligations a new backend must discharge.
type Store interface {
	// NumNodes returns the node-set size.
	NumNodes() int
	// NumEvents returns the number of inserted events.
	NumEvents() int
	// Grow extends the node-ID space to n (no-op when n ≤ NumNodes).
	Grow(n int)
	// Reset re-initializes the store to an empty graph over numNodes nodes,
	// in place — core keeps the same Store value across runtime resets and
	// checkpoint loads so the configured backend survives them. Previously
	// returned EventLog slices keep their captured contents (Reset replaces
	// the log, it does not overwrite the old backing array).
	Reset(numNodes int)

	// AddEvent appends e to the log and both endpoints' incidence lists,
	// returning the assigned log id (see Graph.AddEvent for semantics).
	AddEvent(e Event) int64
	// Event returns the stored event with the given log id. Events are
	// immutable once inserted.
	Event(id int64) *Event
	// EventLog returns the append-only global log; prefixes captured while
	// writers are quiesced stay valid consistent snapshots (see
	// Graph.EventLog). Callers must treat the slice as read-only.
	EventLog() []Event

	// Degree returns the number of interactions of n strictly before t.
	Degree(n NodeID, t float64) int
	// MostRecentNeighbors appends the up-to-k most recent interactions of n
	// strictly before t, newest first.
	MostRecentNeighbors(n NodeID, t float64, k int, out []Incidence) []Incidence
	// UniformNeighbors appends up to k interactions of n before t, sampled
	// uniformly without replacement. Implementations must consume rng
	// identically to Graph.UniformNeighbors (Floyd's algorithm) so seeded
	// runs agree across backends.
	UniformNeighbors(rng *rand.Rand, n NodeID, t float64, k int, out []Incidence) []Incidence
	// KHopMostRecent returns the per-hop temporal neighborhood of the seeds.
	// Results are copy-out: they never alias store-internal adjacency
	// storage, so they stay valid across subsequent appends.
	KHopMostRecent(seeds []NodeID, t float64, fanout, hops int) [][]Incidence
	// KHopMostRecentInto is KHopMostRecent through a caller-owned scratch:
	// the same incidences in the same order, valid only until the next call
	// with the same scratch (see KHopScratch).
	KHopMostRecentInto(sc *KHopScratch, seeds []NodeID, t float64, fanout, hops int) [][]Incidence
	// EventsBetween returns the events with Time in [lo, hi); entries are
	// immutable, so the result stays valid across subsequent appends.
	EventsBetween(lo, hi float64) []Event
	// StaticSnapshot builds the deduplicated undirected CSR of all events
	// before t, for the static baselines.
	StaticSnapshot(t float64) *CSR

	// ConcurrentSafe reports whether the store internally synchronizes
	// concurrent readers and writers. When true, core.Model elides graphMu
	// on graph reads and can run appliers concurrently; when false, core
	// serializes every access behind graphMu.
	ConcurrentSafe() bool
}

// Reset re-initializes g to an empty graph over numNodes nodes. The old
// event log's backing array is left untouched, so previously captured
// EventLog slices keep their contents.
func (g *Graph) Reset(numNodes int) {
	g.numNodes = numNodes
	g.events = nil
	g.adj = make([][]Incidence, numNodes)
}

// ConcurrentSafe reports false: Graph requires external serialization.
func (g *Graph) ConcurrentSafe() bool { return false }

var _ Store = (*Graph)(nil)
