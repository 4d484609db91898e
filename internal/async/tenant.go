// Multi-tenant admission control for the propagation pipeline. With
// tenancy enabled (WithTenants / WithTenantDefaults), every submission is
// attributed to a tenant and passes three gates before reaching a
// propagation worker:
//
//  1. a per-tenant rate limit — a token bucket refilled by the *stream
//     time* carried on the events themselves, so admission decisions are a
//     pure function of the submitted trace and replay deterministically
//     (no wall clock anywhere in the policy);
//  2. a per-tenant bounded queue — a noisy tenant's backlog fills its own
//     queue and sheds its own traffic (ErrQueueFull), never a neighbor's;
//  3. weighted-fair dequeue — workers drain lanes in strict priority
//     order, and within a lane serve tenants round-robin in proportion to
//     their weights, so a backlogged aggressor cannot starve a steady
//     victim of propagation bandwidth.
//
// Every submission outcome is accounted per tenant (submitted = applied +
// dropped, with rate-limited drops broken out), which is what the serving
// layer's 429s, the /v1/stats tenants block, and the noisy_neighbor
// scenario invariants are built on. Without tenancy options the pipeline
// runs the original single-queue path untouched.
package async

import (
	"context"
	"errors"
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
// one (the tenant-unaware Submit/TrySubmit call sites).
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
	// Lane is the tenant's priority lane: workers fully drain lane 0
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

	// Event-time token bucket.
	tokens   float64
	lastTime float64
	seeded   bool

	submitted, applied, dropped, rateLimited int64
	maxDepth                                 int
	syncLat                                  latencyRing
}

func (t *tenantState) depth() int { return len(t.queue) - t.head }

// admitRate charges the batch against the tenant's event-time bucket.
func (t *tenantState) admitRate(events []tgraph.Event) bool {
	if t.cfg.Rate <= 0 {
		return true
	}
	now := events[0].Time
	for _, ev := range events[1:] {
		if ev.Time > now {
			now = ev.Time
		}
	}
	if !t.seeded {
		t.tokens, t.lastTime, t.seeded = t.cfg.Burst, now, true
	}
	if dt := now - t.lastTime; dt > 0 {
		t.tokens += dt * t.cfg.Rate
		if t.tokens > t.cfg.Burst {
			t.tokens = t.cfg.Burst
		}
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

// tenantSched is the tenant registry plus the weighted-fair scheduler that
// replaces the single queue channel when tenancy is enabled.
type tenantSched struct {
	mu    sync.Mutex
	work  *sync.Cond // signaled on enqueue and close: wakes workers
	space *sync.Cond // signaled on dequeue and close: wakes blocked Submits

	closed   bool
	byID     map[string]*tenantState
	lanes    []*tenantLane
	defaults TenantConfig // template for auto-admitted tenants
	queueCap int          // pipeline default per-tenant bound
}

func newTenantSched(o options) *tenantSched {
	s := &tenantSched{
		byID:     make(map[string]*tenantState),
		queueCap: o.queueCap,
		defaults: TenantConfig{Weight: 1},
	}
	if o.tenantDefaults != nil {
		s.defaults = *o.tenantDefaults
	}
	s.work = sync.NewCond(&s.mu)
	s.space = sync.NewCond(&s.mu)
	for _, cfg := range o.tenants {
		s.registerLocked(cfg)
	}
	if _, ok := s.byID[DefaultTenant]; !ok {
		d := s.defaults
		d.ID = DefaultTenant
		s.registerLocked(d)
	}
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
	t := &tenantState{cfg: cfg, credits: cfg.Weight}
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

// resolve maps a tenant id to its state, auto-admitting unknown ids with
// the defaults template.
func (s *tenantSched) resolve(id string) *tenantState {
	if id == "" {
		id = DefaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.byID[id]; ok {
		return t
	}
	cfg := s.defaults
	cfg.ID = id
	return s.registerLocked(cfg)
}

// admit runs the pre-scoring gates: it refuses on a closed scheduler
// (uncounted — the submission never entered the tenant's ledger) and
// charges the rate bucket, counting a refusal as submitted+dropped so the
// per-tenant conservation law holds.
func (s *tenantSched) admit(t *tenantState, events []tgraph.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t.submitted++
	if !t.admitRate(events) {
		t.dropped++
		t.rateLimited++
		return ErrRateLimited
	}
	return nil
}

// recordSync attributes a synchronous-link latency sample to the tenant.
func (s *tenantSched) recordSync(t *tenantState, d time.Duration) {
	s.mu.Lock()
	t.syncLat.add(d)
	s.mu.Unlock()
}

// recordDrop accounts a post-admission drop (queue full, context cancelled,
// closed while enqueueing).
func (s *tenantSched) recordDrop(t *tenantState) {
	s.mu.Lock()
	t.dropped++
	s.mu.Unlock()
}

// enqueue appends the scored batch's record to the tenant's queue. When
// block is false a full queue fails fast with ErrQueueFull; otherwise the
// caller waits for space, for ctx, or for close. A blocking caller must
// kick the scheduler when ctx is done, since the wait is on a condition
// variable that does not watch ctx.
func (s *tenantSched) enqueue(ctx context.Context, t *tenantState, rec *core.Pending, block bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return ErrClosed
		}
		if t.depth() < t.cfg.QueueCap {
			t.queue = append(t.queue, rec)
			if d := t.depth(); d > t.maxDepth {
				t.maxDepth = d
			}
			s.work.Signal()
			return nil
		}
		if !block {
			return ErrQueueFull
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		s.space.Wait()
	}
}

// dequeue hands a worker the next record under the scheduling policy:
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

// markApplied accounts a worker-side apply completion.
func (s *tenantSched) markApplied(t *tenantState) {
	s.mu.Lock()
	t.applied++
	s.mu.Unlock()
}

// close rejects further submissions and wakes every waiter; workers drain
// the remaining backlog before exiting.
func (s *tenantSched) close() {
	s.mu.Lock()
	s.closed = true
	s.work.Broadcast()
	s.space.Broadcast()
	s.mu.Unlock()
}

// kick wakes blocked enqueue waiters so they can observe a cancelled ctx.
func (s *tenantSched) kick() {
	s.mu.Lock()
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

// Tenancy reports whether the pipeline runs the per-tenant admission layer
// (WithTenants/WithTenantDefaults) — the switch the serving edge keys its
// tenant routing and 429 mapping on.
func (p *Pipeline) Tenancy() bool { return p.sched != nil }

// TenantStats snapshots per-tenant admission accounting, or nil when the
// pipeline runs without tenancy.
func (p *Pipeline) TenantStats() map[string]TenantStats {
	if p.sched == nil {
		return nil
	}
	return p.sched.stats()
}

// SubmitTenant is Submit with the batch attributed to a tenant: the
// tenant's rate gate runs before scoring, backpressure blocks on the
// tenant's own queue, and all accounting lands on its ledger. Without
// tenancy it falls through to the plain Submit path.
func (p *Pipeline) SubmitTenant(ctx context.Context, tenant string, events []tgraph.Event) ([]float32, time.Duration, error) {
	if len(events) == 0 {
		return []float32{}, 0, nil
	}
	if p.sched == nil {
		return p.Submit(ctx, events)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return p.submitTenant(ctx, tenant, events, true)
}

// TrySubmitTenant is the non-blocking SubmitTenant: a full tenant queue
// drops the scored batch unapplied with ErrQueueFull, and a spent rate
// bucket drops it unscored with ErrRateLimited.
func (p *Pipeline) TrySubmitTenant(tenant string, events []tgraph.Event) ([]float32, time.Duration, error) {
	if len(events) == 0 {
		return []float32{}, 0, nil
	}
	if p.sched == nil {
		return p.TrySubmit(events)
	}
	return p.submitTenant(context.Background(), tenant, events, false)
}

func (p *Pipeline) submitTenant(ctx context.Context, tenant string, events []tgraph.Event, block bool) ([]float32, time.Duration, error) {
	t := p.sched.resolve(tenant)
	if err := p.sched.admit(t, events); err != nil {
		return nil, 0, err
	}
	// Past the rate gate: score re-admits the batch's evicted nodes, then
	// runs the synchronous link.
	scores, rec, lat, err := p.score(events, true)
	if err != nil {
		// Closed between admit and score: the attempt is on the ledger, so
		// balance it as a drop.
		p.sched.recordDrop(t)
		return nil, 0, err
	}
	p.sched.recordSync(t, lat)

	if block {
		// Wake the enqueue wait when ctx is cancelled, mirroring Drain's
		// watcher: the cond has no native ctx support.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				p.sched.kick()
			case <-stop:
			}
		}()
	}
	p.noteEnqueued()
	if err := p.sched.enqueue(ctx, t, rec, block); err != nil {
		p.unnoteEnqueued()
		p.putRecord(rec)
		p.sched.recordDrop(t)
		return nil, lat, err
	}
	return scores, lat, nil
}
