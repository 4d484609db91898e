// Package async implements APAN's deployment architecture (paper Fig. 2b):
// a synchronous inference stage that answers in milliseconds without
// touching the graph, and an asynchronous propagation stage that performs
// the graph writes, k-hop queries and mail deliveries behind a bounded
// queue. The queue isolates the online decision system from graph-database
// load spikes (the "Black Friday" problem of §1).
//
// The Pipeline API is context-aware: Submit honors cancellation while
// blocked on backpressure, TrySubmit never blocks, Drain waits
// event-driven (condition variable, no polling) and Shutdown drains then
// stops the applier.
//
// Concurrent submissions score in parallel: Model.Score holds the model's
// store lock shared for its gather only, and the one applier holds it
// exclusively only while it writes store memory, so scoring waits for
// neither the graph nor the WAL.
package async

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"apan/internal/core"
	"apan/internal/state"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

// Errors returned by the submission API.
var (
	// ErrClosed is returned by Submit variants after Shutdown.
	ErrClosed = errors.New("async: pipeline closed")
	// ErrQueueFull is returned by TrySubmit when the propagation queue is
	// at capacity and enqueueing would block.
	ErrQueueFull = errors.New("async: propagation queue full")
)

// Option configures a Pipeline at construction time.
type Option func(*options)

// Trainer is the slice of an online trainer the pipeline feeds: Observe is
// called on the applier goroutine with each batch's events immediately after
// they are applied, and must not block (internal/train.OnlineTrainer
// buffers into a bounded queue). Defined as an interface so the pipeline
// does not depend on the trainer implementation.
type Trainer interface {
	Observe(events []tgraph.Event)
}

type options struct {
	queueCap    int
	beforeApply func(events []tgraph.Event)
	trainer     Trainer

	// Tenancy (see tenant.go) switches on routing by tenant name, rate
	// gates and lanes; without it every submission lands on DefaultTenant.
	tenancy        bool
	tenants        []TenantConfig
	tenantDefaults *TenantConfig
}

// WithQueueCap bounds the propagation queue, and with it mailbox staleness
// and the memory an event burst takes: a queued batch holds its events and
// a copy of its endpoints' embeddings (core.Pending, ≈ 83 KB at batch 200,
// d = 172), not a workspace. Submit blocks (backpressure) once the
// asynchronous link falls that many batches behind. Default 64.
func WithQueueCap(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.queueCap = n
		}
	}
}

// WithWorkers does nothing: a pipeline runs exactly one applier goroutine,
// which applies batches in dequeue order.
//
// Deprecated: kept only because the frozen benchmark rig still passes it;
// it goes with the next benchmark edit.
func WithWorkers(int) Option { return func(*options) {} }

// WithBatchWindow does nothing: the serving layer's micro-batcher has no
// window any more (internal/serve.Batcher flushes when a lane is free and
// coalesces while lanes are busy).
//
// Deprecated: kept only because the frozen benchmark rig still passes it;
// it goes with the next benchmark edit.
func WithBatchWindow(time.Duration) Option { return func(*options) {} }

// WithBeforeApply registers fn to run on the applier goroutine immediately
// before each queued batch is applied, with the batch's events. A batch
// parked here holds only its scored record, never a workspace. It is the
// pipeline's deterministic fault-injection seam: internal/scenario parks
// the applier on a channel here to saturate the queue with an exactly
// reproducible drop pattern, or sleeps to emulate a slow graph-database
// consumer — both without reaching into pipeline internals. It also serves
// as an apply-side instrumentation hook. fn must not call back into the
// pipeline's Submit/Drain/Shutdown (the applier it runs on is the goroutine
// that would have to make progress).
func WithBeforeApply(fn func(events []tgraph.Event)) Option {
	return func(o *options) { o.beforeApply = fn }
}

// WithOnlineTrainer feeds t with every applied batch's events, from the
// applier right after the apply — the online continual-learning tap: the
// trainer sees exactly the events that mutated the streaming state, in
// apply order, off the scoring path.
func WithOnlineTrainer(t Trainer) Option {
	return func(o *options) { o.trainer = t }
}

// Pipeline connects a core.Model's synchronous and asynchronous links.
// Submit runs inference inline and enqueues propagation; one applier
// goroutine drains the queue. Any number of goroutines may call the Submit
// variants concurrently, and their synchronous-link passes run in parallel:
// Model.Score shares the store lock with other scorers and is excluded only
// while the applier writes store memory. Every Submit variant and
// ScoreOnly answer an empty batch with empty scores and a nil error, and
// refuse a batch naming a node outside the node space, carrying a feature
// vector that is not EdgeDim long (see core.Model.CheckEvents) or stamped
// with a NaN or infinite time with an error, both without touching the
// model, the queue or any counter.
type Pipeline struct {
	model *core.Model
	opts  options

	// sched is the propagation queue: per-tenant bounded queues drained in
	// weighted-fair order, and under its mutex every pipeline counter.
	sched *tenantSched
	done  chan struct{} // closed by the applier when it exits

	// recMu/recFree recycle the records queued between the links, as the
	// model's passMu/passFree recycle passes: a scorer checks one out and
	// the applier, or a submit that scores only or drops its batch, puts it
	// back. The list never outgrows the most records ever out at once —
	// queue capacity plus concurrent submitters plus the applier's one.
	recMu   sync.Mutex
	recFree []*core.Pending
}

// New starts a pipeline over a trained model with the given options.
func New(m *core.Model, opts ...Option) *Pipeline {
	o := options{queueCap: 64}
	for _, fn := range opts {
		fn(&o)
	}
	p := &Pipeline{
		model: m,
		opts:  o,
		sched: newTenantSched(o),
		done:  make(chan struct{}),
	}
	go p.applier()
	return p
}

// NumNodes reports the current node-ID space of the served model, for
// request validation at the serving edge. It can grow at runtime; see
// EnsureNodes.
func (p *Pipeline) NumNodes() int { return p.model.NumNodes() }

// EnsureNodes grows the served model's node-ID space to at least n, so
// events naming previously unseen node IDs can be scored (dynamic node
// admission). Safe to call concurrently with submissions.
func (p *Pipeline) EnsureNodes(n int) { p.model.EnsureNodes(n) }

// EdgeDim reports the expected event feature dimension.
func (p *Pipeline) EdgeDim() int { return p.model.Cfg.EdgeDim }

// ParamVersion reports the served model's currently published parameter
// version (see core.Model.SwapParams) for the serving stats surface.
func (p *Pipeline) ParamVersion() uint64 { return p.model.ParamVersion() }

// WALStats reports the attached write-ahead log's health for the serving
// stats surface, or nil when the model serves without durability.
func (p *Pipeline) WALStats() *wal.Stats {
	l := p.model.WAL()
	if l == nil {
		return nil
	}
	st := l.Stats()
	return &st
}

// EvictionStats reports the served model's cold-state evictor counters for
// the serving stats surface, or nil when eviction is disabled
// (core.Config.EvictMaxNodes == 0).
func (p *Pipeline) EvictionStats() *core.EvictionStats {
	st, ok := p.model.EvictionStats()
	if !ok {
		return nil
	}
	return &st
}

// MailboxOccupancy reports how much node-store memory the served model
// holds (see state.Occupancy) for the serving stats surface.
func (p *Pipeline) MailboxOccupancy() state.Occupancy { return p.model.MailboxOccupancy() }

// applier is the asynchronous link: the pipeline's one goroutine that
// mutates the model, applying batches in dequeue order until Shutdown has
// drained the queue.
func (p *Pipeline) applier() {
	defer close(p.done)
	for {
		rec, t, ok := p.sched.dequeue()
		if !ok {
			return
		}
		p.applyOne(rec, t)
	}
}

// applyOne runs one dequeued batch through the asynchronous link:
// fault-injection hook, apply, trainer tap, record recycle, accounting.
// t is the tenant the scheduler dequeued it for.
func (p *Pipeline) applyOne(rec *core.Pending, t *tenantState) {
	start := time.Now()
	if p.opts.beforeApply != nil {
		p.opts.beforeApply(rec.Events)
	}
	p.model.ApplyPending(rec)
	if p.opts.trainer != nil {
		// Tap the apply path for online learning. Observe copies what it
		// keeps, so recycling the record below is safe.
		p.opts.trainer.Observe(rec.Events)
	}
	p.putRecord(rec)
	p.sched.markApplied(t, time.Since(start))
}

// score runs the synchronous link. Scoring is NOT serialized: concurrent
// submissions run Model.Score in parallel. Callers run it only once the
// closed check has admitted the batch, so a refused submission never
// touches the model. The batch is scored into a recycled record and the
// scores come back copied, for the caller to keep. With apply set (every
// submission but ScoreOnly) it re-admits the batch's evicted nodes first
// and returns the record for the queue; otherwise the record goes straight
// back to the freelist.
func (p *Pipeline) score(events []tgraph.Event, apply bool) ([]float32, *core.Pending, time.Duration) {
	if apply {
		// Warm any evicted nodes this batch names before scoring: re-admission
		// needs graph access, which the synchronous link (Score) must never
		// perform itself. No-op unless cold-state eviction is configured.
		p.model.ReadmitBatch(events)
	}
	rec := p.getRecord()
	start := time.Now()
	p.model.Score(events, rec)
	lat := time.Since(start)

	scores := append([]float32(nil), rec.Scores...)
	if !apply {
		p.putRecord(rec)
		return scores, nil, lat
	}
	return scores, rec, lat
}

// check refuses a batch naming a node outside the node space, carrying a
// feature vector of the wrong width or stamped with a NaN or infinite time,
// before any gate counts it: scoring it would panic, applying it would log
// a record replay refuses, and a non-finite time has no place in a node's
// time-ordered history. The time check is admission's alone: replay applies
// a logged record's times as they were logged (core.Model.ReplayBatch).
func (p *Pipeline) check(events []tgraph.Event) error {
	if err := p.model.CheckEvents(events, p.model.NumNodes()); err != nil {
		return err
	}
	for i := range events {
		if t := events[i].Time; math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("async: event %d (%d→%d) has time %v; want a finite time", i, events[i].Src, events[i].Dst, t)
		}
	}
	return nil
}

// getRecord checks a record out of the freelist, or builds one.
func (p *Pipeline) getRecord() *core.Pending {
	p.recMu.Lock()
	defer p.recMu.Unlock()
	n := len(p.recFree)
	if n == 0 {
		return new(core.Pending)
	}
	rec := p.recFree[n-1]
	p.recFree[n-1] = nil
	p.recFree = p.recFree[:n-1]
	return rec
}

// putRecord returns a record whose batch was applied or dropped.
func (p *Pipeline) putRecord(rec *core.Pending) {
	rec.Events = nil // the caller's batch may be collected
	p.recMu.Lock()
	p.recFree = append(p.recFree, rec)
	p.recMu.Unlock()
}

// Submit scores a batch of interactions on the synchronous link and
// enqueues the asynchronous work on DefaultTenant, blocking under
// backpressure until queue space frees, ctx is done or the pipeline shuts
// down. The returned latency covers only the synchronous part — what a
// caller of the online decision system observes. On cancellation the
// already-computed scores are discarded unapplied: no state was mutated, so
// the caller can simply retry.
func (p *Pipeline) Submit(ctx context.Context, events []tgraph.Event) ([]float32, time.Duration, error) {
	return p.submitTenant(ctx, DefaultTenant, events, true)
}

// ScoreOnly scores a batch on the synchronous link without enqueueing it
// for apply: no mailbox delivery, no graph insert, no state update. This is
// the read-only serving mode of a warm-standby follower, whose state
// advances exclusively through WAL replay — scoring a shipped-but-unlogged
// event through the write path would fork the follower from the leader.
func (p *Pipeline) ScoreOnly(events []tgraph.Event) ([]float32, time.Duration, error) {
	if len(events) == 0 {
		return []float32{}, 0, nil
	}
	if err := p.check(events); err != nil {
		return nil, 0, err
	}
	if err := p.sched.begin(); err != nil {
		return nil, 0, err
	}
	scores, _, lat := p.score(events, false)
	p.sched.recordSync(lat)
	return scores, lat, nil
}

// TrySubmit is the non-blocking Submit variant: when the propagation queue
// is at capacity it drops the scored batch unapplied and returns
// ErrQueueFull, leaving all model state untouched — a load-shedding
// primitive for the serving edge.
func (p *Pipeline) TrySubmit(events []tgraph.Event) ([]float32, time.Duration, error) {
	return p.submitTenant(context.Background(), DefaultTenant, events, false)
}

// Explain computes node n's attention over its current mailbox with the
// published parameters (see core.Model.Explain). It answers for any node
// with mail, whichever batch was scored last; ok is false for a node
// without mail or outside the node space.
func (p *Pipeline) Explain(n tgraph.NodeID) (*core.Explanation, bool) {
	return p.model.Explain(n)
}

// Drain blocks until every enqueued batch has been propagated or ctx is
// done. Waiting is event-driven: the applier broadcasts on a condition
// variable when the queue empties.
func (p *Pipeline) Drain(ctx context.Context) error {
	s := p.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wait(ctx, s.idle, func() bool { return s.enqueued == s.processed })
}

// Shutdown rejects new submissions, drains the queue and stops the applier.
// A Submit still waiting for queue space returns ErrClosed and its batch is
// not applied; every batch already queued is. It returns ctx's error if the
// drain does not finish in time (the applier still runs to completion in
// the background). The pipeline cannot be reused.
func (p *Pipeline) Shutdown(ctx context.Context) error {
	p.sched.close()
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats is a point-in-time view of pipeline health.
type Stats struct {
	Submitted     int64         `json:"submitted"`
	Processed     int64         `json:"processed"`
	QueueDepth    int           `json:"queue_depth"`
	MaxQueueDepth int           `json:"max_queue_depth"`
	SyncMean      time.Duration `json:"sync_mean_ns"`
	SyncP99       time.Duration `json:"sync_p99_ns"`
	AsyncMean     time.Duration `json:"async_mean_ns"`
}

// QueueDepth is the number of accepted batches the asynchronous link has not
// finished propagating — Stats().QueueDepth at constant cost, for callers on
// the request path.
func (p *Pipeline) QueueDepth() int {
	s := p.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.enqueued - s.processed)
}

// Stats reports instrumentation counters. The means cover every sample
// since start; SyncP99 covers the last 1,024 synchronous-link samples. Its
// cost is bounded by that window, and the sort runs after the pipeline's
// mutex is released, so a scrape never stalls Submit or the applier.
func (p *Pipeline) Stats() Stats {
	var buf [tailWindow]time.Duration
	s := p.sched
	s.mu.Lock()
	st := Stats{
		Submitted:     s.submitted,
		Processed:     s.processed,
		QueueDepth:    int(s.enqueued - s.processed),
		MaxQueueDepth: s.maxDepth,
		SyncMean:      s.syncLat.mean(),
		AsyncMean:     s.asyncLat.mean(),
	}
	tail := s.syncLat.window(buf[:0])
	s.mu.Unlock()
	st.SyncP99 = p99(tail)
	return st
}
