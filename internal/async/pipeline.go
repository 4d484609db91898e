// Package async implements APAN's deployment architecture (paper Fig. 2b):
// a synchronous inference stage that answers in milliseconds without
// touching the graph, and an asynchronous propagation stage that performs
// the graph writes, k-hop queries and mail deliveries behind a bounded
// queue. The queue isolates the online decision system from graph-database
// load spikes (the "Black Friday" problem of §1).
//
// The Pipeline API is context-aware: Submit honors cancellation while
// blocked on backpressure, TrySubmit never blocks, SubmitFuture returns a
// channel for callers that overlap scoring with other work, Drain waits
// event-driven (condition variable, no polling) and Shutdown drains then
// stops the workers.
//
// Concurrent submissions score in parallel: the model's sharded, lock-
// striped stores (core.Config.Shards) make InferBatch safe under any number
// of goroutines, and propagation workers writing one shard never stall
// scoring reads of another.
package async

import (
	"context"
	"errors"
	"sync"
	"time"

	"apan/internal/core"
	"apan/internal/mailbox"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

// Errors returned by the submission API.
var (
	// ErrClosed is returned by Submit variants after Shutdown/Close.
	ErrClosed = errors.New("async: pipeline closed")
	// ErrQueueFull is returned by TrySubmit when the propagation queue is
	// at capacity and enqueueing would block.
	ErrQueueFull = errors.New("async: propagation queue full")
)

// Option configures a Pipeline at construction time.
type Option func(*options)

// Trainer is the slice of an online trainer the pipeline feeds: Observe is
// called on a propagation worker with each batch's events immediately after
// they are applied, and must not block (internal/train.OnlineTrainer
// buffers into a bounded queue). Defined as an interface so the pipeline
// does not depend on the trainer implementation.
type Trainer interface {
	Observe(events []tgraph.Event)
}

type options struct {
	queueCap    int
	workers     int
	beforeApply func(events []tgraph.Event)
	trainer     Trainer

	// Tenancy (see tenant.go): when enabled the single queue channel is
	// replaced by the per-tenant weighted-fair scheduler.
	tenancy        bool
	tenants        []TenantConfig
	tenantDefaults *TenantConfig
}

// WithQueueCap bounds the propagation queue. Capacity bounds memory during
// event bursts; Submit blocks (backpressure) once the asynchronous link
// falls that many batches behind. Default 64.
func WithQueueCap(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.queueCap = n
		}
	}
}

// WithWorkers sets the number of asynchronous propagation workers. The
// default of 1 preserves the exact submission-order state evolution the
// tests rely on. Safety does not depend on this knob: state writes and mail
// deliveries lock only the touched store shard, and every graph access is
// serialized by the model's graph mutex — so extra workers overlap only the
// state writes, never the graph work.
func WithWorkers(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.workers = n
		}
	}
}

// WithBatchWindow does nothing: the serving layer's micro-batcher has no
// window any more (internal/serve.Batcher flushes when a lane is free and
// coalesces while lanes are busy).
//
// Deprecated: kept only because the frozen benchmark rig still passes it;
// it goes with the next benchmark edit.
func WithBatchWindow(time.Duration) Option { return func(*options) {} }

// WithBeforeApply registers fn to run on a propagation worker immediately
// before each batch's ApplyInference, with the batch's events. It is the
// pipeline's deterministic fault-injection seam: internal/scenario parks
// workers on a channel here to saturate the queue with an exactly
// reproducible drop pattern, or sleeps to emulate a slow graph-database
// consumer — both without reaching into pipeline internals. It also serves
// as an apply-side instrumentation hook. fn runs on worker goroutines and
// must be safe for concurrent calls when WithWorkers > 1; it must not call
// back into the pipeline's Submit/Drain/Shutdown (the worker it runs on is
// the one that would have to make progress).
func WithBeforeApply(fn func(events []tgraph.Event)) Option {
	return func(o *options) { o.beforeApply = fn }
}

// WithOnlineTrainer feeds t with every applied batch's events, from the
// propagation worker right after ApplyInference — the online continual-
// learning tap: the trainer sees exactly the events that mutated the
// streaming state, in apply order, off the scoring path. With WithWorkers >
// 1 Observe must be safe for concurrent calls (the bundled trainer is).
func WithOnlineTrainer(t Trainer) Option {
	return func(o *options) { o.trainer = t }
}

// Pipeline connects a core.Model's synchronous and asynchronous links.
// Submit runs inference inline and enqueues propagation; worker goroutines
// drain the queue. Any number of goroutines may call the Submit variants
// concurrently, and their synchronous-link passes run in parallel: the
// model's sharded stores make InferBatch safe and scalable under concurrent
// callers (shard-local locking, no global lock).
type Pipeline struct {
	model *core.Model
	opts  options

	queue chan *core.Inference
	done  chan struct{}

	// sched replaces queue when tenancy is enabled (WithTenants): per-tenant
	// bounded queues drained in weighted-fair order. Nil otherwise.
	sched *tenantSched

	// sendMu protects the queue channel's lifetime: Submit holds a read
	// lock across the send, Shutdown takes the write lock before closing,
	// so a send can never hit a closed channel.
	sendMu sync.RWMutex

	mu        sync.Mutex
	idle      *sync.Cond // signaled whenever enqueued == processed
	syncLat   latencyRing
	asyncLat  latencyRing
	submitted int64
	enqueued  int64
	processed int64
	maxDepth  int
	closed    bool
	wg        sync.WaitGroup
}

// New starts a pipeline over a trained model with the given options.
func New(m *core.Model, opts ...Option) *Pipeline {
	o := options{queueCap: 64, workers: 1}
	for _, fn := range opts {
		fn(&o)
	}
	p := &Pipeline{
		model: m,
		opts:  o,
		queue: make(chan *core.Inference, o.queueCap),
		done:  make(chan struct{}),
	}
	if o.tenancy {
		p.sched = newTenantSched(o)
	}
	p.idle = sync.NewCond(&p.mu)
	p.wg.Add(o.workers)
	for i := 0; i < o.workers; i++ {
		go p.worker()
	}
	go func() {
		p.wg.Wait()
		close(p.done)
	}()
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

// MailboxOccupancy reports how much mail memory the served model holds
// (see mailbox.Occupancy) for the serving stats surface.
func (p *Pipeline) MailboxOccupancy() mailbox.Occupancy { return p.model.Mailbox().Occupancy() }

func (p *Pipeline) worker() {
	defer p.wg.Done()
	if p.sched != nil {
		for {
			inf, t, ok := p.sched.dequeue()
			if !ok {
				return
			}
			p.applyOne(inf, t)
		}
	}
	for inf := range p.queue {
		p.applyOne(inf, nil)
	}
}

// applyOne runs one dequeued inference through the asynchronous link:
// fault-injection hook, apply, trainer tap, workspace recycle, accounting.
// t is the tenant the scheduler dequeued it for, nil without tenancy.
func (p *Pipeline) applyOne(inf *core.Inference, t *tenantState) {
	start := time.Now()
	if p.opts.beforeApply != nil {
		p.opts.beforeApply(inf.Events)
	}
	p.model.ApplyInference(inf)
	if p.opts.trainer != nil {
		// Tap the apply path for online learning. Observe copies what it
		// keeps, so releasing the inference below is safe.
		p.opts.trainer.Observe(inf.Events)
	}
	// The submitter copied the scores out before enqueueing, so after
	// the apply nothing references the inference: recycle its pooled
	// workspace for the next scorer.
	inf.Release()
	d := time.Since(start)
	if t != nil {
		// The tenant ledger first: once the batch counts as processed, Drain
		// may return, and its caller may read TenantStats.
		p.sched.markApplied(t)
	}
	p.mu.Lock()
	p.asyncLat.add(d)
	p.processed++
	if p.processed == p.enqueued {
		p.idle.Broadcast()
	}
	p.mu.Unlock()
}

// score runs the synchronous link and records the observed latency. Scoring
// is NOT serialized: concurrent submissions run InferBatch in parallel over
// the sharded stores. It returns ErrClosed without touching the model when
// the pipeline has shut down.
func (p *Pipeline) score(events []tgraph.Event) (*core.Inference, time.Duration, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, 0, ErrClosed
	}
	p.submitted++
	p.mu.Unlock()

	start := time.Now()
	inf := p.model.InferBatch(events)
	lat := time.Since(start)

	p.mu.Lock()
	p.syncLat.add(lat)
	p.mu.Unlock()
	return inf, lat, nil
}

// noteEnqueued counts a batch BEFORE its channel send so a worker can never
// observe processed > enqueued (which would let Drain return with work still
// queued). A send that is abandoned must be undone with unnoteEnqueued.
func (p *Pipeline) noteEnqueued() {
	p.mu.Lock()
	p.enqueued++
	if d := int(p.enqueued - p.processed); d > p.maxDepth {
		p.maxDepth = d
	}
	p.mu.Unlock()
}

func (p *Pipeline) unnoteEnqueued() {
	p.mu.Lock()
	p.enqueued--
	if p.enqueued == p.processed {
		p.idle.Broadcast()
	}
	p.mu.Unlock()
}

// Submit scores a batch of interactions on the synchronous link and
// enqueues the asynchronous work, blocking under backpressure until queue
// space frees or ctx is done. The returned latency covers only the
// synchronous part — what a caller of the online decision system observes.
// On cancellation the already-computed scores are discarded unapplied: no
// state was mutated, so the caller can simply retry.
func (p *Pipeline) Submit(ctx context.Context, events []tgraph.Event) ([]float32, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if p.sched != nil {
		return p.submitTenant(ctx, DefaultTenant, events, true)
	}
	// Warm any evicted nodes this batch names before scoring: re-admission
	// needs graph access, which the synchronous link (InferBatch) must never
	// perform itself. No-op unless cold-state eviction is configured.
	p.model.ReadmitBatch(events)
	inf, lat, err := p.score(events)
	if err != nil {
		return nil, 0, err
	}
	// Copy the scores out of the inference's pooled workspace: once the
	// propagation worker applies and releases it, the pooled buffer is
	// recycled, and the caller may hold the scores indefinitely.
	scores := append([]float32(nil), inf.Scores...)

	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		inf.Release()
		return nil, lat, ErrClosed
	}
	p.noteEnqueued()
	select {
	case p.queue <- inf:
		return scores, lat, nil
	case <-ctx.Done():
		p.unnoteEnqueued()
		// Cancelled before the enqueue: nothing was applied, nothing else
		// references the inference.
		inf.Release()
		return nil, lat, ctx.Err()
	}
}

// ScoreOnly scores a batch on the synchronous link without enqueueing it
// for apply: no mailbox delivery, no graph insert, no state update. This is
// the read-only serving mode of a warm-standby follower, whose state
// advances exclusively through WAL replay — scoring a shipped-but-unlogged
// event through the write path would fork the follower from the leader.
func (p *Pipeline) ScoreOnly(events []tgraph.Event) ([]float32, time.Duration, error) {
	inf, lat, err := p.score(events)
	if err != nil {
		return nil, 0, err
	}
	scores := append([]float32(nil), inf.Scores...)
	inf.Release()
	return scores, lat, nil
}

// TrySubmit is the non-blocking Submit variant: when the propagation queue
// is at capacity it drops the scored batch unapplied and returns
// ErrQueueFull, leaving all model state untouched — a load-shedding
// primitive for the serving edge.
func (p *Pipeline) TrySubmit(events []tgraph.Event) ([]float32, time.Duration, error) {
	if p.sched != nil {
		return p.submitTenant(context.Background(), DefaultTenant, events, false)
	}
	p.model.ReadmitBatch(events) // see Submit
	inf, lat, err := p.score(events)
	if err != nil {
		return nil, 0, err
	}
	scores := append([]float32(nil), inf.Scores...)

	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		inf.Release()
		return nil, lat, ErrClosed
	}
	p.noteEnqueued()
	select {
	case p.queue <- inf:
		return scores, lat, nil
	default:
		p.unnoteEnqueued()
		// Shed load: the scored batch is dropped unapplied; recycle it.
		inf.Release()
		return nil, lat, ErrQueueFull
	}
}

// Result is the outcome of an asynchronous submission.
type Result struct {
	Scores      []float32
	SyncLatency time.Duration
	Err         error
}

// SubmitFuture submits on a background goroutine and returns a buffered
// channel that receives the single Result; the caller need never read it.
func (p *Pipeline) SubmitFuture(ctx context.Context, events []tgraph.Event) <-chan Result {
	ch := make(chan Result, 1)
	go func() {
		scores, lat, err := p.Submit(ctx, events)
		ch <- Result{Scores: scores, SyncLatency: lat, Err: err}
	}()
	return ch
}

// Explain returns the attention explanation for node n from the most recent
// scored batch. With concurrent scoring, "most recent" means whichever pass
// published its attention record last.
func (p *Pipeline) Explain(n tgraph.NodeID) (*core.Explanation, bool) {
	return p.model.Explain(n)
}

// Drain blocks until every enqueued batch has been propagated or ctx is
// done. Waiting is event-driven: workers broadcast on a condition variable
// when the queue empties.
func (p *Pipeline) Drain(ctx context.Context) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			p.mu.Lock()
			p.idle.Broadcast()
			p.mu.Unlock()
		case <-stop:
		}
	}()

	p.mu.Lock()
	defer p.mu.Unlock()
	for p.enqueued != p.processed {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.idle.Wait()
	}
	return ctx.Err()
}

// Shutdown rejects new submissions, waits for in-flight Submits to enqueue,
// then drains the queue and stops the workers. It returns ctx's error if
// the drain does not finish in time (the workers still run to completion in
// the background). The pipeline cannot be reused.
func (p *Pipeline) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		select {
		case <-p.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	p.closed = true
	p.mu.Unlock()

	if p.sched != nil {
		// The tenant scheduler rejects new enqueues atomically under its own
		// mutex and workers drain the backlog before exiting, so no channel
		// close is needed on this path.
		p.sched.close()
		select {
		case <-p.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// Wait for every in-flight send, then close the queue so workers exit
	// after the backlog. The lock wait happens off this goroutine so ctx is
	// honored even while a backpressured Submit holds the read lock.
	go func() {
		p.sendMu.Lock()
		close(p.queue)
		p.sendMu.Unlock()
	}()

	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the queue, stops the workers and releases resources.
//
// Deprecated: use Shutdown, which honors a deadline.
func (p *Pipeline) Close() { _ = p.Shutdown(context.Background()) }

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
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.enqueued - p.processed)
}

// Stats reports instrumentation counters. The means cover every sample
// since start; SyncP99 covers the last 1,024 synchronous-link samples. Its
// cost is bounded by that window, and the sort runs after the pipeline's
// mutex is released, so a scrape never stalls Submit or the applier.
func (p *Pipeline) Stats() Stats {
	var buf [tailWindow]time.Duration
	p.mu.Lock()
	st := Stats{
		Submitted:     p.submitted,
		Processed:     p.processed,
		QueueDepth:    int(p.enqueued - p.processed),
		MaxQueueDepth: p.maxDepth,
		SyncMean:      p.syncLat.mean(),
		AsyncMean:     p.asyncLat.mean(),
	}
	tail := p.syncLat.window(buf[:0])
	p.mu.Unlock()
	st.SyncP99 = p99(tail)
	return st
}
