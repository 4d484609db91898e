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
	// nothing downstream retains these). Pooling is what lets concurrent
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
	// khop and seeds back the per-event k-hop traversal; the returned hop
	// slices alias khop and are consumed before the next event's query.
	khop  tgraph.KHopScratch
	seeds [2]tgraph.NodeID
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
//     sampled neighbors of both endpoints at time t (fan-out cfg.Neighbors)
//   - identity passing (f), so every recipient gets the same vector
//
// After all events: mails per node are mean-reduced (ρ) and delivered (ψ).
//
// Graph writes and k-hop reads are interleaved per event — later events in
// the batch see earlier ones — which is part of the model's semantics;
// restructuring into insert-all-then-sample phases would change scores.
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
	mail := s.mail[:p.cfg.EdgeDim]
	zScratch := s.zScratch[:p.cfg.EdgeDim]

	for _, ev := range events {
		// Graph write first so later events in the batch see earlier ones.
		p.db.AddEvent(ev)

		// One mail buffer serves every event: CopyTo overwrites it fully,
		// and deliver accumulates copies, never the buffer itself.
		zOf.CopyTo(ev.Src, mail)
		tensor.Axpy(mail, ev.Feat, 1)
		zOf.CopyTo(ev.Dst, zScratch)
		tensor.Axpy(mail, zScratch, 1)

		// Hop 0: the interactive nodes themselves.
		p.deliver(s, ev.Src, mail, ev.Time)
		if ev.Dst != ev.Src {
			p.deliver(s, ev.Dst, mail, ev.Time)
		}
		// Hops 1..k−1: neighbors by most-recent sampling, strictly before t,
		// so the mail travels along pre-existing temporal edges.
		if p.cfg.Hops > 1 {
			s.seeds[0], s.seeds[1] = ev.Src, ev.Dst
			hops := p.db.KHopMostRecentInto(&s.khop, s.seeds[:], ev.Time, p.cfg.Neighbors, p.cfg.Hops-1)
			for _, level := range hops {
				for _, inc := range level {
					p.deliver(s, inc.Peer, mail, ev.Time)
				}
			}
		}
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
