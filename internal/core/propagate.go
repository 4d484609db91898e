package core

import (
	"sync"
	"sync/atomic"

	"apan/internal/gdb"
	"apan/internal/mailbox"
	"apan/internal/state"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// Propagator implements the asynchronous link (paper §3.5): mail generation
// φ, identity mail passing f over the k-hop most-recent-sampled subgraph,
// reduction ρ, and mailbox update ψ. In deployment it runs off the critical
// path; in training it is invoked synchronously after each batch so results
// are deterministic.
//
// Mailbox deliveries lock only the recipient's shard, so propagation never
// stalls synchronous-link readers of other shards. Whether ProcessBatch
// itself may run concurrently is the graph backend's call: with the flat
// store callers must serialize (core.Model does so with its graph mutex);
// with a concurrency-safe backend (tgraph.Sharded) concurrent ProcessBatch
// calls are safe — per-batch scratch comes from an internal pool, graph
// inserts take only partition locks, and per-node deliveries commute under
// the mailbox's ψ.
type Propagator struct {
	cfg  Config
	db   *gdb.DB
	mbox *mailbox.Sharded

	mailsDelivered atomic.Int64

	// scratch pools per-batch working state (see propScratch): the inbox
	// map keeps its buckets, retired accumulators sit in a freelist, and
	// one mail buffer serves every event (mailbox.Deliver copies, so
	// nothing downstream retains these), and the frontier buffers keep
	// their capacity across batches. Pooling is what lets concurrent
	// ProcessBatch calls proceed without sharing or re-allocating scratch.
	scratch sync.Pool
}

// NewPropagator builds a propagator writing into mbox and reading/writing
// the temporal graph behind db.
func NewPropagator(cfg Config, db *gdb.DB, mbox *mailbox.Sharded) *Propagator {
	return &Propagator{cfg: cfg, db: db, mbox: mbox}
}

// MailsDelivered reports the number of mailbox deliveries so far.
func (p *Propagator) MailsDelivered() int64 { return p.mailsDelivered.Load() }

// propScratch is one batch's reusable working state. Each ProcessBatch call
// checks one out of the pool, so scratch is never shared across concurrent
// batches and steady-state batches re-allocate nothing.
type propScratch struct {
	inbox    map[tgraph.NodeID]*mailAccum
	freelist []*mailAccum
	mail     []float32
	zScratch []float32
	// Frontier buffers for one run's k-hop expansion: levels[h] holds hop
	// h+1's incidences for every event of the run, owners[h] the run index
	// of the event each incidence belongs to, and cursor[h] how far delivery
	// has read levels[h]. seeds, times and ends carry one hop's gather.
	levels [][]tgraph.Incidence
	owners [][]int32
	cursor []int
	seeds  []tgraph.NodeID
	times  []float64
	ends   []int
}

// mailAccum accumulates the mails a node receives within one batch so ρ can
// reduce them to a single mail.
type mailAccum struct {
	sum []float32
	n   int
	ts  float64
}

// getAccum checks a zeroed accumulator of size dim out of the freelist.
func (s *propScratch) getAccum(dim int) *mailAccum {
	if n := len(s.freelist); n > 0 {
		acc := s.freelist[n-1]
		s.freelist[n-1] = nil
		s.freelist = s.freelist[:n-1]
		if cap(acc.sum) < dim {
			acc.sum = make([]float32, dim)
		}
		acc.sum = acc.sum[:dim]
		clear(acc.sum)
		acc.n, acc.ts = 0, 0
		return acc
	}
	return &mailAccum{sum: make([]float32, dim)}
}

// deliver routes one mail into the batch inbox, reducing per ψ's rule.
func (p *Propagator) deliver(s *propScratch, n tgraph.NodeID, vec []float32, ts float64) {
	acc := s.inbox[n]
	if acc == nil {
		acc = s.getAccum(len(vec))
		s.inbox[n] = acc
	}
	switch p.cfg.Reduce {
	case ReduceLatest:
		if ts >= acc.ts || acc.n == 0 {
			copy(acc.sum, vec)
			acc.ts = ts
		}
		acc.n = 1
	default: // ReduceMean
		tensor.Axpy(acc.sum, vec, 1)
		if ts > acc.ts || acc.n == 0 {
			acc.ts = ts
		}
		acc.n++
	}
}

// ProcessBatch inserts the batch's events into the temporal graph and
// propagates their mails. zOf must return the *current* embedding z(t) of a
// node (the state store, already updated with this batch's embeddings).
//
// For each event (i, j, e, t):
//   - mail(t) = z_i(t) + e_ij + z_j(t)                      (φ, eq. 6)
//   - recipients: i and j themselves, then hops 1..k−1 of most-recent
//     sampled neighbors of both endpoints strictly before t (fan-out
//     cfg.Neighbors)
//   - identity passing (f), so every recipient gets the same vector
//
// After all events: mails per node are mean-reduced (ρ) and delivered (ψ).
//
// The batch is processed in runs of non-decreasing timestamps — on a sorted
// stream the whole batch is one run. A run's events are all inserted before
// any of its neighborhoods is read, and each hop of every event's expansion
// is one frontier gather (one graph-DB round trip per hop per run, not per
// event). That is exact: a later event of the run is never strictly before
// an earlier one's time, so no query can see it, and an out-of-order event
// starts a new run, after the events before it are in the graph. Mails are
// then accumulated in event order, so every node reduces the same mails in
// the same order as an event-at-a-time insert-then-sample loop would.
func (p *Propagator) ProcessBatch(events []tgraph.Event, zOf *state.Sharded) {
	if len(events) == 0 {
		return
	}
	s, _ := p.scratch.Get().(*propScratch)
	if s == nil {
		s = &propScratch{}
	}
	if s.inbox == nil {
		s.inbox = make(map[tgraph.NodeID]*mailAccum, 4*len(events))
	}
	if cap(s.mail) < p.cfg.EdgeDim {
		s.mail = make([]float32, p.cfg.EdgeDim)
		s.zScratch = make([]float32, p.cfg.EdgeDim)
	}
	for depth := p.cfg.Hops - 1; len(s.levels) < depth; {
		s.levels = append(s.levels, nil)
		s.owners = append(s.owners, nil)
		s.cursor = append(s.cursor, 0)
	}

	for lo := 0; lo < len(events); {
		// A run continues while times do not decrease. A NaN time fails
		// the comparison on both sides, so it forms a run of its own.
		hi := lo + 1
		for hi < len(events) && events[hi].Time >= events[hi-1].Time {
			hi++
		}
		p.propagateRun(s, events[lo:hi], zOf)
		lo = hi
	}

	for n, acc := range s.inbox {
		if p.cfg.Reduce != ReduceLatest && acc.n > 1 {
			inv := 1 / float32(acc.n)
			for i := range acc.sum {
				acc.sum[i] *= inv
			}
		}
		p.mbox.Deliver(n, acc.sum, acc.ts)
		s.freelist = append(s.freelist, acc)
	}
	p.mailsDelivered.Add(int64(len(s.inbox)))
	clear(s.inbox)
	p.scratch.Put(s)
}

// propagateRun inserts one run of non-decreasing timestamps, expands every
// event's neighborhood one frontier gather per hop, and accumulates the
// run's mails in event order: src, dst (if different), then each hop's
// incidences in answer order.
func (p *Propagator) propagateRun(s *propScratch, run []tgraph.Event, zOf *state.Sharded) {
	for _, ev := range run {
		p.db.AddEvent(ev)
	}
	depth := p.cfg.Hops - 1
	for h := 0; h < depth; h++ {
		// Hop 1 gathers from both endpoints of every event, hop h+1 from the
		// peers hop h reached; each seed is queried at its event's time.
		s.seeds, s.times = s.seeds[:0], s.times[:0]
		if h == 0 {
			for _, ev := range run {
				s.seeds = append(s.seeds, ev.Src, ev.Dst)
				s.times = append(s.times, ev.Time, ev.Time)
			}
		} else {
			for j, inc := range s.levels[h-1] {
				s.seeds = append(s.seeds, inc.Peer)
				s.times = append(s.times, run[s.owners[h-1][j]].Time)
			}
		}
		s.levels[h], s.ends = p.db.MostRecentFrontier(s.seeds, s.times, p.cfg.Neighbors, s.levels[h][:0], s.ends[:0])
		own, from := s.owners[h][:0], 0
		for i, end := range s.ends {
			o := int32(i / 2)
			if h > 0 {
				o = s.owners[h-1][i]
			}
			for ; from < end; from++ {
				own = append(own, o)
			}
		}
		s.owners[h] = own
		s.cursor[h] = 0
	}

	// One mail buffer serves every event: CopyTo overwrites it fully, and
	// deliver accumulates copies, never the buffer itself.
	mail := s.mail[:p.cfg.EdgeDim]
	zScratch := s.zScratch[:p.cfg.EdgeDim]
	for i, ev := range run {
		zOf.CopyTo(ev.Src, mail)
		tensor.Axpy(mail, ev.Feat, 1)
		zOf.CopyTo(ev.Dst, zScratch)
		tensor.Axpy(mail, zScratch, 1)

		// Hop 0: the interactive nodes themselves.
		p.deliver(s, ev.Src, mail, ev.Time)
		if ev.Dst != ev.Src {
			p.deliver(s, ev.Dst, mail, ev.Time)
		}
		// Hops 1..k−1: the event's share of each level, a contiguous span
		// because the frontier lists events in run order.
		for h := 0; h < depth; h++ {
			lvl, own, c := s.levels[h], s.owners[h], s.cursor[h]
			for ; c < len(lvl) && own[c] == int32(i); c++ {
				p.deliver(s, lvl[c].Peer, mail, ev.Time)
			}
			s.cursor[h] = c
		}
	}
}
