// The propagation queue and its multi-tenant admission control. Every
// submission is attributed to a tenant and passes three gates before
// reaching the applier:
//
//  1. a per-tenant rate limit — a token bucket refilled by the *stream
//     time* carried on the events themselves, so admission decisions are a
//     pure function of the submitted trace and replay deterministically
//     (no wall clock anywhere in the policy);
//  2. a per-tenant bounded queue — a noisy tenant's backlog fills its own
//     queue and sheds its own traffic (ErrQueueFull), never a neighbor's;
//  3. weighted-fair dequeue — the applier drains lanes in strict priority
//     order, and within a lane serves tenants round-robin in proportion to
//     their weights, so a backlogged aggressor cannot starve a steady
//     victim of propagation bandwidth.
//
// Every submission outcome is accounted per tenant (submitted = applied +
// dropped, with rate-limited drops broken out), which is what the serving
// layer's 429s, the /v1/stats tenants block, and the noisy_neighbor
// scenario invariants are built on. Without tenancy options
// (WithTenants / WithTenantDefaults) every name resolves to DefaultTenant:
// one unlimited weight-1 tenant whose queue holds WithQueueCap batches.
package async

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"apan/internal/core"
	"apan/internal/tgraph"
)

// ErrRateLimited is returned by the Submit variants when the tenant's
// event-time token bucket has no capacity for the batch.
var ErrRateLimited = errors.New("async: tenant rate limit exceeded")

// DefaultTenant is the tenant id attributed to submissions that do not name
// one (the tenant-unaware Submit/TrySubmit call sites), and to every
// submission when tenancy is off.
const DefaultTenant = "default"

// TenantConfig declares one tenant's admission contract.
type TenantConfig struct {
	// ID names the tenant; the empty id resolves to DefaultTenant.
	ID string
	// Weight is the tenant's share of propagation bandwidth relative to its
	// lane peers: a weight-3 tenant is dequeued three times per round for a
	// weight-1 peer's once, when both are backlogged. Values < 1 mean 1.
	Weight int
	// Rate caps admission in events per second of stream time (the Time
	// field of the submitted events); 0 or negative means unlimited. The
	// bucket refills from the event timestamps, never the wall clock, so a
	// replayed trace is admitted identically every run.
	Rate float64
	// Burst is the token-bucket depth in events — how far above the
	// sustained rate a flash crowd may momentarily go. 0 means one second
	// of Rate (or 1, whichever is larger).
	Burst float64
	// Lane is the tenant's priority lane: the applier fully drains lane 0
	// before looking at lane 1, and so on. Equal-lane tenants share via
	// weighted round-robin.
	Lane int
	// QueueCap bounds the tenant's propagation queue; 0 adopts the
	// pipeline's WithQueueCap value.
	QueueCap int
}

func (c TenantConfig) normalized(pipelineCap int) TenantConfig {
	if c.ID == "" {
		c.ID = DefaultTenant
	}
	if c.Weight < 1 {
		c.Weight = 1
	}
	if c.QueueCap < 1 {
		c.QueueCap = pipelineCap
	}
	if c.Rate > 0 && c.Burst <= 0 {
		c.Burst = c.Rate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// TenantStats is a point-in-time view of one tenant's admission accounting.
// Submitted counts every submission attempt that reached an open pipeline;
// each is eventually Applied or Dropped (RateLimited drops are the subset
// of Dropped shed by the rate gate), so Submitted = Applied + Dropped once
// the tenant's queue is drained. SyncMean covers every scored batch,
// SyncP99 the tenant's last 1,024.
type TenantStats struct {
	Submitted     int64         `json:"submitted"`
	Applied       int64         `json:"applied"`
	Dropped       int64         `json:"dropped"`
	RateLimited   int64         `json:"rate_limited"`
	QueueDepth    int           `json:"queue_depth"`
	MaxQueueDepth int           `json:"max_queue_depth"`
	Weight        int           `json:"weight"`
	Lane          int           `json:"lane"`
	SyncMean      time.Duration `json:"sync_mean_ns"`
	SyncP99       time.Duration `json:"sync_p99_ns"`
}

// WithTenants enables multi-tenant admission and registers the given
// tenants. Unlisted tenant ids are auto-admitted on first use with the
// WithTenantDefaults template (or an unlimited weight-1 contract when no
// template is set); the DefaultTenant always exists so tenant-unaware call
// sites keep working unchanged.
func WithTenants(cfgs ...TenantConfig) Option {
	return func(o *options) {
		o.tenancy = true
		o.tenants = append(o.tenants, cfgs...)
	}
}

// WithTenantDefaults enables multi-tenant admission and sets the contract
// template for tenants that submit without prior registration (the ID field
// is ignored).
func WithTenantDefaults(cfg TenantConfig) Option {
	return func(o *options) {
		o.tenancy = true
		o.tenantDefaults = &cfg
	}
}

// tenantState is one tenant's queue, token bucket and accounting. All
// fields are guarded by the owning tenantSched's mutex.
type tenantState struct {
	cfg     TenantConfig
	credits int // weighted-round-robin credits left this round

	// FIFO queue with an explicit head so steady-state dequeue is O(1)
	// without the backing array crawling forward forever.
	queue []*core.Pending
	head  int

	// Event-time token bucket. The clock starts at -Inf, so the first
	// finite time fills the bucket.
	tokens   float64
	lastTime float64

	submitted, applied, dropped, rateLimited int64
	maxDepth                                 int
	syncLat                                  latencyRing
}

func (t *tenantState) depth() int { return len(t.queue) - t.head }

// admitRate charges the batch against the tenant's event-time bucket. The
// clock reads the batch's newest time, which Pipeline.check has held
// finite: a NaN or infinite time would stop the refill for good.
func (t *tenantState) admitRate(events []tgraph.Event) bool {
	if t.cfg.Rate <= 0 {
		return true
	}
	now := math.Inf(-1)
	for _, ev := range events {
		now = max(now, ev.Time)
	}
	if now > t.lastTime {
		t.tokens = min(t.tokens+(now-t.lastTime)*t.cfg.Rate, t.cfg.Burst)
		t.lastTime = now
	}
	cost := float64(len(events))
	if t.tokens < cost {
		return false
	}
	t.tokens -= cost
	return true
}

// tenantLane groups equal-priority tenants for weighted round-robin.
type tenantLane struct {
	prio    int
	tenants []*tenantState // registration order
	next    int            // round-robin cursor
}

// pick returns the lane's next backlogged tenant under weighted
// round-robin, or nil when every queue in the lane is empty. The cursor
// stays on a tenant until its credits for the round are spent; when no
// backlogged tenant has credits left, the round ends and every credit is
// replenished to the tenant's weight.
func (l *tenantLane) pick() *tenantState {
	n := len(l.tenants)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			idx := (l.next + i) % n
			t := l.tenants[idx]
			if t.depth() == 0 || t.credits <= 0 {
				continue
			}
			t.credits--
			if t.credits == 0 {
				l.next = (idx + 1) % n
			} else {
				l.next = idx
			}
			return t
		}
		backlogged := false
		for _, t := range l.tenants {
			if t.depth() > 0 {
				backlogged = true
			}
			t.credits = t.cfg.Weight
		}
		if !backlogged {
			return nil
		}
	}
	return nil
}

// tenantSched is the pipeline's one propagation queue: the tenant registry
// plus the weighted-fair scheduler. Its mutex also guards the pipeline's
// counters, so an enqueue counts itself and an apply marks its tenant and
// the pipeline in one critical section.
type tenantSched struct {
	mu    sync.Mutex
	work  *sync.Cond // signaled on enqueue and close: wakes the applier
	space *sync.Cond // signaled on dequeue and close: wakes blocked Submits
	idle  *sync.Cond // signaled whenever enqueued == processed: wakes Drain

	closed   bool
	tenancy  bool // route by name; otherwise every id is DefaultTenant
	byID     map[string]*tenantState
	lanes    []*tenantLane
	defaults TenantConfig // template for auto-admitted tenants
	queueCap int          // pipeline default per-tenant bound

	syncLat, asyncLat              latencyRing
	submitted, enqueued, processed int64
	maxDepth                       int
}

func newTenantSched(o options) *tenantSched {
	s := &tenantSched{
		tenancy:  o.tenancy,
		byID:     make(map[string]*tenantState),
		queueCap: o.queueCap,
		defaults: TenantConfig{Weight: 1},
	}
	if o.tenantDefaults != nil {
		s.defaults = *o.tenantDefaults
	}
	s.work = sync.NewCond(&s.mu)
	s.space = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	for _, cfg := range o.tenants {
		s.registerLocked(cfg)
	}
	s.resolveLocked(DefaultTenant)
	return s
}

// registerLocked adds a tenant (idempotent by id) and slots it into its
// lane. Called at construction and on first use of an unknown id, always
// under mu (construction is single-threaded).
func (s *tenantSched) registerLocked(cfg TenantConfig) *tenantState {
	cfg = cfg.normalized(s.queueCap)
	if t, ok := s.byID[cfg.ID]; ok {
		return t
	}
	t := &tenantState{cfg: cfg, credits: cfg.Weight, tokens: cfg.Burst, lastTime: math.Inf(-1)}
	s.byID[cfg.ID] = t
	for _, l := range s.lanes {
		if l.prio == cfg.Lane {
			l.tenants = append(l.tenants, t)
			return t
		}
	}
	s.lanes = append(s.lanes, &tenantLane{prio: cfg.Lane, tenants: []*tenantState{t}})
	sort.SliceStable(s.lanes, func(i, j int) bool { return s.lanes[i].prio < s.lanes[j].prio })
	return t
}

// resolveLocked maps a tenant id to its state, auto-admitting unknown ids
// with the defaults template. Without tenancy every id is DefaultTenant.
func (s *tenantSched) resolveLocked(id string) *tenantState {
	if id == "" || !s.tenancy {
		id = DefaultTenant
	}
	if t, ok := s.byID[id]; ok {
		return t
	}
	cfg := s.defaults
	cfg.ID = id
	return s.registerLocked(cfg)
}

// begin counts a scoring pass on an open pipeline, or refuses it with
// ErrClosed, uncounted.
func (s *tenantSched) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.submitted++
	return nil
}

// admit runs the pre-scoring gates: it refuses on a closed pipeline
// (uncounted — the submission never entered the tenant's ledger) and
// charges the tenant's rate bucket, counting a refusal as submitted+dropped
// so the per-tenant conservation law holds.
func (s *tenantSched) admit(id string, events []tgraph.Event) (*tenantState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	t := s.resolveLocked(id)
	t.submitted++
	if !t.admitRate(events) {
		t.dropped++
		t.rateLimited++
		return nil, ErrRateLimited
	}
	s.submitted++
	return t, nil
}

// recordSync attributes an unqueued synchronous-link latency sample.
func (s *tenantSched) recordSync(d time.Duration) {
	s.mu.Lock()
	s.syncLat.add(d)
	s.mu.Unlock()
}

// enqueue records the batch's synchronous-link latency, then appends its
// record to the tenant's queue. When block is false a full queue fails fast
// with ErrQueueFull; otherwise the caller waits for space, for ctx, or for
// close, which refuses the batch with ErrClosed. A refused batch counts as
// the tenant's drop.
func (s *tenantSched) enqueue(ctx context.Context, t *tenantState, rec *core.Pending, lat time.Duration, block bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncLat.add(lat)
	t.syncLat.add(lat)
	err := s.wait(ctx, s.space, func() bool { return s.closed || !block || t.depth() < t.cfg.QueueCap })
	switch {
	case err != nil:
	case s.closed:
		err = ErrClosed
	case t.depth() >= t.cfg.QueueCap:
		err = ErrQueueFull
	default:
		if t.head > 0 && len(t.queue) == cap(t.queue) {
			// Slide the live records to the front instead of growing an
			// array whose head has moved on.
			n := copy(t.queue, t.queue[t.head:])
			clear(t.queue[n:])
			t.queue, t.head = t.queue[:n], 0
		}
		t.queue = append(t.queue, rec)
		t.maxDepth = max(t.maxDepth, t.depth())
		s.enqueued++
		s.maxDepth = max(s.maxDepth, int(s.enqueued-s.processed))
		s.work.Signal()
		return nil
	}
	t.dropped++
	return err
}

// wait blocks on c, whose lock mu the caller holds, until ready reports
// true, and returns ctx's error if ctx is done first. The wake-up on ctx is
// armed only once a wait is needed and ctx can be cancelled, so a call that
// does not wait allocates nothing.
func (s *tenantSched) wait(ctx context.Context, c *sync.Cond, ready func() bool) error {
	for armed := false; !ready(); {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !armed && ctx.Done() != nil {
			armed = true
			defer context.AfterFunc(ctx, func() {
				s.mu.Lock()
				c.Broadcast()
				s.mu.Unlock()
			})()
		}
		c.Wait()
	}
	return nil
}

// dequeue hands the applier the next record under the scheduling policy:
// strict priority across lanes, weighted round-robin within one. It blocks
// while every queue is empty and returns ok=false only once the scheduler
// is closed AND fully drained — shutdown never abandons admitted work.
func (s *tenantSched) dequeue() (*core.Pending, *tenantState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for _, l := range s.lanes {
			t := l.pick()
			if t == nil {
				continue
			}
			rec := t.queue[t.head]
			t.queue[t.head] = nil
			t.head++
			if t.head == len(t.queue) {
				t.queue = t.queue[:0]
				t.head = 0
			}
			s.space.Broadcast()
			return rec, t, true
		}
		if s.closed {
			return nil, nil, false
		}
		s.work.Wait()
	}
}

// markApplied accounts an apply completion, on the tenant's
// ledger and the pipeline's at once: once the batch counts as processed,
// Drain may return and its caller may read TenantStats.
func (s *tenantSched) markApplied(t *tenantState, d time.Duration) {
	s.mu.Lock()
	t.applied++
	s.asyncLat.add(d)
	s.processed++
	if s.processed == s.enqueued {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// close rejects further submissions and wakes every waiter; the applier drains
// the remaining backlog before exiting. It is idempotent.
func (s *tenantSched) close() {
	s.mu.Lock()
	s.closed = true
	s.work.Broadcast()
	s.space.Broadcast()
	s.mu.Unlock()
}

// stats snapshots every tenant's accounting. Each tenant's p99 window is
// copied under the scheduler's mutex and sorted after it is released.
func (s *tenantSched) stats() map[string]TenantStats {
	s.mu.Lock()
	out := make(map[string]TenantStats, len(s.byID))
	tails := make(map[string][]time.Duration, len(s.byID))
	for id, t := range s.byID {
		out[id] = TenantStats{
			Submitted:     t.submitted,
			Applied:       t.applied,
			Dropped:       t.dropped,
			RateLimited:   t.rateLimited,
			QueueDepth:    t.depth(),
			MaxQueueDepth: t.maxDepth,
			Weight:        t.cfg.Weight,
			Lane:          t.cfg.Lane,
			SyncMean:      t.syncLat.mean(),
		}
		tails[id] = t.syncLat.window(nil)
	}
	s.mu.Unlock()
	for id, tail := range tails {
		st := out[id]
		st.SyncP99 = p99(tail)
		out[id] = st
	}
	return out
}

// Tenancy reports whether the pipeline routes submissions by tenant name
// (WithTenants/WithTenantDefaults) — the switch the serving edge keys its
// tenant routing and 429 mapping on.
func (p *Pipeline) Tenancy() bool { return p.opts.tenancy }

// TenantStats snapshots per-tenant admission accounting, or nil when the
// pipeline runs without tenancy.
func (p *Pipeline) TenantStats() map[string]TenantStats {
	if !p.opts.tenancy {
		return nil
	}
	return p.sched.stats()
}

// SubmitTenant is Submit with the batch attributed to a tenant: the
// tenant's rate gate runs before scoring, backpressure blocks on the
// tenant's own queue, and all accounting lands on its ledger. Without
// tenancy the name resolves to DefaultTenant.
func (p *Pipeline) SubmitTenant(ctx context.Context, tenant string, events []tgraph.Event) ([]float32, time.Duration, error) {
	return p.submitTenant(ctx, tenant, events, true)
}

// TrySubmitTenant is the non-blocking SubmitTenant: a full tenant queue
// drops the scored batch unapplied with ErrQueueFull, and a spent rate
// bucket drops it unscored with ErrRateLimited.
func (p *Pipeline) TrySubmitTenant(tenant string, events []tgraph.Event) ([]float32, time.Duration, error) {
	return p.submitTenant(context.Background(), tenant, events, false)
}

// submitTenant is every submission: the empty batch, a done ctx and a
// malformed batch return at once, then the closed check and the rate gate,
// the synchronous link, and the enqueue (block waits for space, !block
// sheds).
func (p *Pipeline) submitTenant(ctx context.Context, tenant string, events []tgraph.Event, block bool) ([]float32, time.Duration, error) {
	if len(events) == 0 {
		return []float32{}, 0, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if err := p.check(events); err != nil {
		return nil, 0, err
	}
	t, err := p.sched.admit(tenant, events)
	if err != nil {
		return nil, 0, err
	}
	// Past the gates: score re-admits the batch's evicted nodes, then runs
	// the synchronous link.
	scores, rec, lat := p.score(events, true)
	if err := p.sched.enqueue(ctx, t, rec, lat, block); err != nil {
		p.putRecord(rec)
		return nil, lat, err
	}
	return scores, lat, nil
}
