package core

import (
	"sync"

	"apan/internal/tgraph"
)

// Cold-state eviction bounds the model's warm working set. Streams with
// unbounded node arrival (the serving reality behind EnsureNodes) grow the
// node store without limit; eviction caps how many nodes may be warm at
// once (Config.EvictMaxNodes) by resetting the least recently touched nodes
// to the cold-start condition — zero state, empty mailbox, exactly how a
// never-seen node looks to the encoder. The store hands the node's record
// to its free list, so the budget bounds record bytes for the nodes it
// tracks (batch endpoints; see ROADMAP item 11 for nodes that only receive
// mail). The temporal graph is NOT trimmed:
// adjacency is the durable structure re-admission warms from.
//
// An evicted node that reappears in the stream is re-admitted on the
// admission path (ReadmitBatch, called by async.Pipeline before scoring and
// by ReplayBatch before applying, never inside Score): its state is re-seeded with the mean of its most
// recent graph neighbors' current embeddings — the same inductive signal the
// encoder would otherwise have to recover over many events — and it rejoins
// the LRU as most recently used.
//
// Determinism: tracking is pure bookkeeping keyed by applied-event index, so
// a run whose budget is never exceeded performs no ClearNode calls and stays
// bitwise identical to an eviction-disabled run (RuntimeDigest-exact). A run
// that does evict is still deterministic for a fixed apply order: WAL replay
// through ReplayBatch re-admits and re-applies the same batches in the same
// order and re-evicts identically (given that serving re-admitted each batch
// with every earlier one applied; see docs/durability.md for the queue case). Evictor bookkeeping is not checkpointed; after a
// restore, evicted nodes simply look cold (the standard inductive path) and
// warm nodes re-enter the LRU as the stream touches them.

// EvictionStats is the point-in-time view of the cold-state evictor for the
// serving stats surface.
type EvictionStats struct {
	// Budget is Config.EvictMaxNodes, the warm-node cap.
	Budget int `json:"budget"`
	// Tracked is the number of currently warm (LRU-tracked) nodes.
	Tracked int `json:"tracked"`
	// ColdSet is the number of evicted nodes awaiting possible re-admission.
	ColdSet int `json:"cold_set"`
	// Evicted counts evictions since construction (a node can be counted
	// multiple times if it cycles).
	Evicted uint64 `json:"evicted"`
	// Readmitted counts re-admission warm-ups since construction.
	Readmitted uint64 `json:"readmitted"`
}

// lruEnt is one warm node in the evictor's intrusive LRU list.
type lruEnt struct {
	node       tgraph.NodeID
	touch      uint64 // applied-event index of the last touch
	prev, next *lruEnt
}

// evictor tracks warm nodes in LRU order by last-touched event index. All
// fields are guarded by mu, which sits in the model's lock order between
// applyMu and storeMu (applyMu → evictor.mu → storeMu).
type evictor struct {
	mu     sync.Mutex
	budget int
	clock  uint64 // applied-event counter; stamps touches
	byNode map[tgraph.NodeID]*lruEnt
	head   *lruEnt // least recently touched
	tail   *lruEnt // most recently touched
	// evicted holds nodes cleared by the evictor and not yet re-admitted —
	// the set ReadmitBatch consults. A node evicted and then re-touched by
	// an apply (without passing through ReadmitBatch) leaves the set too:
	// the apply wrote fresh state, so there is nothing left to warm.
	evicted  map[tgraph.NodeID]struct{}
	nEvict   uint64
	nReadmit uint64
}

func newEvictor(budget int) *evictor {
	return &evictor{
		budget:  budget,
		byNode:  make(map[tgraph.NodeID]*lruEnt),
		evicted: make(map[tgraph.NodeID]struct{}),
	}
}

func (e *evictor) unlink(ent *lruEnt) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else {
		e.head = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else {
		e.tail = ent.prev
	}
	ent.prev, ent.next = nil, nil
}

func (e *evictor) pushTail(ent *lruEnt) {
	ent.prev = e.tail
	if e.tail != nil {
		e.tail.next = ent
	} else {
		e.head = ent
	}
	e.tail = ent
}

// touchLocked marks node warm at event index idx, moving it to the MRU end.
func (e *evictor) touchLocked(node tgraph.NodeID, idx uint64) {
	if ent, ok := e.byNode[node]; ok {
		ent.touch = idx
		if e.tail != ent {
			e.unlink(ent)
			e.pushTail(ent)
		}
		return
	}
	// A node the stream touches directly needs no warm-up; forget any
	// pending cold record.
	delete(e.evicted, node)
	ent := &lruEnt{node: node, touch: idx}
	e.byNode[node] = ent
	e.pushTail(ent)
}

// resetLocked drops all tracking (counters survive). Called when the store
// itself is reset or replaced wholesale.
func (e *evictor) resetLocked() {
	e.byNode = make(map[tgraph.NodeID]*lruEnt)
	e.evicted = make(map[tgraph.NodeID]struct{})
	e.head, e.tail = nil, nil
	e.clock = 0
}

// noteTouched records the endpoints of an applied batch in the LRU and
// evicts over-budget nodes. Runs as the last mutation of the batch's apply
// span (under applyMu), so a checkpoint cut never lands between a batch's
// writes and its evictions. No-op when eviction is off.
func (m *Model) noteTouched(events []tgraph.Event) {
	e := m.ev
	if e == nil {
		return
	}
	e.mu.Lock()
	base := e.clock
	for i := range events {
		e.touchLocked(events[i].Src, base+uint64(i))
		e.touchLocked(events[i].Dst, base+uint64(i))
	}
	e.clock = base + uint64(len(events))
	m.evictOverBudgetLocked()
	e.mu.Unlock()
}

// evictOverBudgetLocked clears least-recently-touched nodes until the warm
// set fits the budget. Requires applyMu and e.mu; it takes storeMu for the
// clears.
func (m *Model) evictOverBudgetLocked() {
	e := m.ev
	if len(e.byNode) <= e.budget {
		return
	}
	m.storeMu.Lock()
	defer m.storeMu.Unlock()
	for len(e.byNode) > e.budget {
		v := e.head
		e.unlink(v)
		delete(e.byNode, v.node)
		e.evicted[v.node] = struct{}{}
		e.nEvict++
		m.st.ClearNode(v.node)
	}
}

// ReadmitBatch warms every evicted node named as an endpoint of events,
// re-seeding its state with the mean of its most recent graph neighbors'
// current embeddings (fan-out Config.Neighbors, strictly before the event's
// time) and returning it to the LRU as most recently used. It returns the
// number of nodes re-admitted. This is the admission-path half of cold-state
// eviction: async.Pipeline calls it before scoring, so Score — which has
// no graph access by design — sees warmed state through the ordinary
// store reads. A node with no graph history stays cold (the standard
// inductive cold start). No-op when eviction is off.
func (m *Model) ReadmitBatch(events []tgraph.Event) int {
	e := m.ev
	if e == nil || !e.namesEvicted(events) {
		return 0
	}
	// Only a batch naming an evicted node waits for the writer lock. The
	// evictor may have changed between the check and the lock; warm re-checks.
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	dim := m.Cfg.EdgeDim
	var mean []float32
	var incs []tgraph.Incidence
	readmitted := 0
	warm := func(node tgraph.NodeID, t float64) {
		if _, ok := e.evicted[node]; !ok {
			return
		}
		delete(e.evicted, node)
		incs = m.db.G.MostRecentNeighbors(node, t, m.Cfg.Neighbors, incs[:0])
		if mean == nil {
			mean = make([]float32, dim)
		}
		clear(mean)
		// The neighbours' rows are read without storeMu: every store write
		// happens under applyMu, which this goroutine holds.
		last := 0.0
		for i := range incs {
			for j, v := range m.st.Get(incs[i].Peer) {
				mean[j] += v
			}
			if incs[i].Time > last {
				last = incs[i].Time
			}
		}
		if len(incs) > 0 {
			inv := 1 / float32(len(incs))
			for j := range mean {
				mean[j] *= inv
			}
			m.storeMu.Lock()
			m.st.Set(node, mean, last)
			m.storeMu.Unlock()
		}
		e.touchLocked(node, e.clock)
		e.nReadmit++
		readmitted++
	}
	for i := range events {
		warm(events[i].Src, events[i].Time)
		warm(events[i].Dst, events[i].Time)
	}
	// Re-admission grows the warm set; keep the budget an invariant.
	m.evictOverBudgetLocked()
	return readmitted
}

// namesEvicted reports whether an endpoint of events is in the cold set,
// under e.mu alone.
func (e *evictor) namesEvicted(events []tgraph.Event) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range events {
		if _, ok := e.evicted[events[i].Src]; ok {
			return true
		}
		if _, ok := e.evicted[events[i].Dst]; ok {
			return true
		}
	}
	return false
}

// EvictionStats reports the cold-state evictor's counters; ok is false when
// eviction is disabled (Config.EvictMaxNodes == 0).
func (m *Model) EvictionStats() (EvictionStats, bool) {
	e := m.ev
	if e == nil {
		return EvictionStats{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return EvictionStats{
		Budget:     e.budget,
		Tracked:    len(e.byNode),
		ColdSet:    len(e.evicted),
		Evicted:    e.nEvict,
		Readmitted: e.nReadmit,
	}, true
}

// resetEvictor drops all LRU/cold-set tracking after a store reset or
// wholesale restore (counters survive). No-op when eviction is off.
func (m *Model) resetEvictor() {
	e := m.ev
	if e == nil {
		return
	}
	e.mu.Lock()
	e.resetLocked()
	e.mu.Unlock()
}
