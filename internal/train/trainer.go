package train

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/eval"
	"apan/internal/nn"
	"apan/internal/tgraph"
)

// Config tunes an OnlineTrainer. Zero values take the defaults noted below.
type Config struct {
	// BufferCap is the reservoir capacity of the replay buffer (default
	// 4096) and RecentCap the recency ring (default 512). RecencyBias is the
	// probability a mini-batch draw comes from the recency ring (default
	// 0.5) — the knob between drift tracking and retention.
	BufferCap   int
	RecentCap   int
	RecencyBias float64

	// MiniBatch is the events per training step (default 64). StepEvery is
	// how many applied events accumulate between steps (default 64): 1 step
	// per StepEvery observed events, so training cost scales with traffic.
	MiniBatch int
	StepEvery int

	// PublishEvery is the number of steps between publish attempts (default
	// 4). Each attempt is gated by the holdout check.
	PublishEvery int

	// LR is the Adam learning rate of the private copy (default: the
	// model's configured rate). ClipNorm bounds the global gradient norm
	// per step (default 5).
	LR       float32
	ClipNorm float64

	// HoldoutEvery routes every Nth observed event into the holdout set
	// instead of the replay buffer (default 16); HoldoutCap bounds the set
	// (ring of the most recent, default 256). MinHoldout is the smallest
	// holdout size at which the publish gate is enforced (default 16;
	// below it candidates publish unconditionally).
	HoldoutEvery int
	HoldoutCap   int
	MinHoldout   int

	// Tolerance is the holdout-AP slack a candidate may regress by and
	// still publish (default 0.02). After RollbackPatience consecutive
	// withheld publishes (default 2) the private copy is rolled back to the
	// last published version and the optimizer state is reset.
	Tolerance        float64
	RollbackPatience int

	// MaxPending bounds the Observe queue (default 8192 events); overflow
	// drops the oldest pending events, counted in Stats.DroppedPending, so
	// a slow trainer sheds training signal rather than stalling propagation.
	MaxPending int

	// Seed drives every stochastic choice the trainer makes (reservoir
	// replacement, mini-batch sampling, negative draws, dropout). Equal
	// seeds and equal Observe/Pump sequences train identically.
	Seed int64
}

func (c *Config) normalize(modelLR float32) {
	if c.BufferCap == 0 {
		c.BufferCap = 4096
	}
	if c.RecentCap == 0 {
		c.RecentCap = 512
	}
	if c.RecencyBias == 0 {
		c.RecencyBias = 0.5
	}
	if c.MiniBatch == 0 {
		c.MiniBatch = 64
	}
	if c.StepEvery == 0 {
		c.StepEvery = 64
	}
	if c.PublishEvery == 0 {
		c.PublishEvery = 4
	}
	if c.LR == 0 {
		c.LR = modelLR
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	if c.HoldoutEvery == 0 {
		c.HoldoutEvery = 16
	}
	if c.HoldoutCap == 0 {
		c.HoldoutCap = 256
	}
	if c.MinHoldout == 0 {
		c.MinHoldout = 16
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.02
	}
	if c.RollbackPatience == 0 {
		c.RollbackPatience = 2
	}
	if c.MaxPending == 0 {
		c.MaxPending = 8192
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Stats is a point-in-time view of trainer health, exposed through
// /v1/stats.
type Stats struct {
	ParamVersion      uint64  `json:"param_version"`
	Frozen            bool    `json:"frozen"`
	Observed          int64   `json:"observed_events"`
	DroppedPending    int64   `json:"dropped_pending_events"`
	Trained           int64   `json:"trained_events"`
	Steps             int64   `json:"steps"`
	Publishes         int64   `json:"publishes"`
	WithheldPublishes int64   `json:"withheld_publishes"`
	Rollbacks         int64   `json:"rollbacks"`
	LastHoldoutAP     float64 `json:"last_holdout_ap"`
	BufferEvents      int     `json:"buffer_events"`
	HoldoutEvents     int     `json:"holdout_events"`
	// TrainEvPerSec is trained events divided by time spent inside training
	// steps — the online-training throughput of BENCH_apan.json.
	TrainEvPerSec float64 `json:"train_ev_per_s"`
	// SwapLastNs/SwapMeanNs measure SwapParams latency (snapshot copy +
	// module binding + atomic publish).
	SwapLastNs int64 `json:"swap_last_ns"`
	SwapMeanNs int64 `json:"swap_mean_ns"`
}

// Publish records one published version for audit: the scenario harness's
// no-torn-params invariant checks every served score's pinned version
// against this log and re-verifies fingerprints.
type Publish struct {
	Version     uint64 `json:"version"`
	Fingerprint uint64 `json:"fingerprint"`
}

// holdoutSample is one held-out positive with its frozen negative pairing,
// so holdout AP is comparable across checks.
type holdoutSample struct {
	ev  tgraph.Event
	neg tgraph.NodeID
}

// OnlineTrainer adapts a serving model to its own stream. See the package
// comment for the contract; construct with New, feed with Observe (wired by
// async.WithOnlineTrainer), drive with Start/Stop in serving or Pump in
// deterministic harnesses.
type OnlineTrainer struct {
	m   *core.Model
	cfg Config

	// qmu guards the Observe-side state only, so the pipeline's applier
	// never waits on a training step.
	qmu                      sync.Mutex
	pending                  []tgraph.Event
	frozen                   bool
	observed, droppedPending int64

	// runMu serializes the training side (Pump vs background loop).
	runMu sync.Mutex
	rng   *rand.Rand
	buf   *ReplayBuffer
	ns    *dataset.NegSampler

	enc    *core.Encoder
	dec    *core.LinkDecoder
	params []*nn.Tensor
	opt    *nn.Adam

	// linkStep trains the private copy and scores the holdout set (two
	// forward-only passes per publish attempt), reusing its plan, gather
	// buffers and tapes.
	linkStep *core.Step

	refEnc    *core.Encoder
	refDec    *core.LinkDecoder
	refParams []*nn.Tensor

	// Mini-batch and holdout assembly state, reused across calls so the
	// steady-state train loop allocates nothing
	// (TestOnlineTrainStepZeroAllocSteadyState holds it to 0 allocs/op). All
	// guarded by runMu.
	sampleBuf []tgraph.Event
	negsBuf   []tgraph.NodeID
	hoEvents  []tgraph.Event
	hoNegs    []tgraph.NodeID
	hoScores  []float32
	hoLabels  []bool

	holdout     []holdoutSample
	holdoutIdx  int
	sinceStep   int
	sincePub    int
	regressions int

	trained, steps, publishes, withheld, rollbacks int64
	trainNanos, swapNanos, swapLast                int64
	lastAP                                         float64
	pubLog                                         []Publish

	// background mode
	startOnce sync.Once
	stopOnce  sync.Once
	started   bool
	wake      chan struct{}
	stop      chan struct{}
	done      chan struct{}
}

// newModules builds a private encoder/decoder pair for the model's
// architecture (fresh weights, immediately overwritten by a CopyTo),
// through the same factory the model's published versions use — the
// architectures cannot drift apart.
func newModules(cfg core.Config, rng *rand.Rand) (*core.Encoder, *core.LinkDecoder, []*nn.Tensor) {
	enc, dec := core.NewForwardModules(cfg, rng)
	return enc, dec, append(enc.Params(), dec.Params()...)
}

// New builds a trainer over m, seeding its private parameter copy (and the
// reference copy the holdout gate compares against) from the model's
// currently published version.
func New(m *core.Model, cfg Config) (*OnlineTrainer, error) {
	cfg.normalize(m.Cfg.LR)
	t := &OnlineTrainer{
		m:    m,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		buf:  NewReplayBuffer(cfg.BufferCap, cfg.RecentCap, cfg.Seed+1),
		ns:   dataset.NewNegSampler(m.NumNodes()),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	t.enc, t.dec, t.params = newModules(m.Cfg, t.rng)
	t.refEnc, t.refDec, t.refParams = newModules(m.Cfg, t.rng)
	cur := m.CurrentParams()
	if err := cur.CopyTo(t.params); err != nil {
		return nil, fmt.Errorf("train: seed private params: %w", err)
	}
	if err := cur.CopyTo(t.refParams); err != nil {
		return nil, fmt.Errorf("train: seed reference params: %w", err)
	}
	t.opt = nn.NewAdam(t.params, cfg.LR)
	t.linkStep = m.NewStep(rand.New(rand.NewSource(cfg.Seed + 2)))
	// The version serving starts on belongs in the audit log too.
	t.pubLog = append(t.pubLog, Publish{Version: cur.Version(), Fingerprint: cur.Fingerprint()})
	return t, nil
}

// Observe hands the trainer a batch of applied events. It is called on the
// applier immediately after ApplyPending and must stay cheap:
// events are copied into a bounded pending queue (oldest shed under
// overload) and the background loop, if running, is woken. A frozen trainer
// ignores events entirely, so frozen runs are bitwise deterministic.
func (t *OnlineTrainer) Observe(events []tgraph.Event) {
	t.qmu.Lock()
	if t.frozen {
		t.qmu.Unlock()
		return
	}
	t.observed += int64(len(events))
	t.pending = append(t.pending, events...)
	if over := len(t.pending) - t.cfg.MaxPending; over > 0 {
		t.droppedPending += int64(over)
		t.pending = append(t.pending[:0], t.pending[over:]...)
	}
	t.qmu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// Freeze stops the trainer from consuming events or stepping; already
// pending events are discarded so a frozen trainer has no residual effect.
func (t *OnlineTrainer) Freeze() {
	t.qmu.Lock()
	t.frozen = true
	t.pending = t.pending[:0]
	t.qmu.Unlock()
}

// Resume re-enables training after Freeze.
func (t *OnlineTrainer) Resume() {
	t.qmu.Lock()
	t.frozen = false
	t.qmu.Unlock()
}

// Frozen reports whether the trainer is currently frozen.
func (t *OnlineTrainer) Frozen() bool {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	return t.frozen
}

// Start launches the background training loop (serving mode). Stop ends it.
// Start is idempotent.
func (t *OnlineTrainer) Start() {
	t.startOnce.Do(func() {
		t.started = true
		go func() {
			defer close(t.done)
			for {
				select {
				case <-t.stop:
					return
				case <-t.wake:
					t.Pump()
				}
			}
		}()
	})
}

// Stop terminates the background loop and waits for an in-flight step to
// finish. Safe to call without Start (no-op) and more than once.
func (t *OnlineTrainer) Stop() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.startOnce.Do(func() { close(t.done) }) // never started: nothing to wait for
	<-t.done
}

// pumpChunk bounds how many events one runMu acquisition may ingest, so
// Stats/PublishLog readers (the /v1/stats handler) wait for at most a few
// training steps even when the trainer is deeply backlogged.
const pumpChunk = 256

// Pump drains the pending queue and trains inline: ingest every event,
// step whenever StepEvery events have accumulated, attempt a publish every
// PublishEvery steps. Deterministic for a given seed and event sequence —
// the harness mode. Safe to call concurrently with Observe; concurrent
// Pumps serialize per ingested chunk. runMu is taken per pumpChunk events,
// never for the whole backlog, and a Freeze lands between chunks (and
// between events inside ingest), so freezing halts in-flight training
// promptly instead of after the backlog.
func (t *OnlineTrainer) Pump() {
	for {
		t.qmu.Lock()
		queue := t.pending
		t.pending = nil
		t.qmu.Unlock()
		if len(queue) == 0 {
			return
		}
		for lo := 0; lo < len(queue); lo += pumpChunk {
			hi := min(lo+pumpChunk, len(queue))
			t.runMu.Lock()
			t.ingest(queue[lo:hi])
			t.runMu.Unlock()
		}
	}
}

// ingest runs under runMu.
func (t *OnlineTrainer) ingest(events []tgraph.Event) {
	for i := range events {
		if t.Frozen() {
			// Freeze must stop in-flight work too, not only the Observe
			// queue: the already-drained remainder is discarded so the
			// trainer is inert the moment Freeze returns observers-wise
			// and within one event ingest-wise.
			return
		}
		ev := events[i]
		t.ns.Observe(&ev)
		t.holdoutIdx++
		if t.holdoutIdx%t.cfg.HoldoutEvery == 0 {
			neg := t.sampleNeg(ev.Dst)
			if len(t.holdout) < t.cfg.HoldoutCap {
				t.holdout = append(t.holdout, holdoutSample{ev: ev, neg: neg})
			} else {
				t.holdout[(t.holdoutIdx/t.cfg.HoldoutEvery)%t.cfg.HoldoutCap] = holdoutSample{ev: ev, neg: neg}
			}
			continue
		}
		t.buf.Add(ev)
		t.sinceStep++
		if t.sinceStep >= t.cfg.StepEvery && t.buf.Len() >= t.cfg.MiniBatch {
			t.sinceStep = 0
			if t.step() {
				t.sincePub++
				if t.sincePub >= t.cfg.PublishEvery {
					t.sincePub = 0
					t.tryPublish()
				}
			}
		}
	}
}

// sampleNeg draws a negative destination from the observed pool, guarded
// against a rolled-back node space.
func (t *OnlineTrainer) sampleNeg(exclude tgraph.NodeID) tgraph.NodeID {
	n := t.m.NumNodes()
	neg := t.ns.Sample(t.rng, exclude)
	if int(neg) >= n {
		neg = tgraph.NodeID(t.rng.Intn(n))
	}
	return neg
}

// step runs one Adam mini-batch on the private copy: sample the replay
// buffer, draw live negatives, gather inputs from the live runtime state
// (read-only, under the model's shared store lock), forward/backward on the reusable training
// tape, clip and step. Reports whether a step actually ran.
func (t *OnlineTrainer) step() bool {
	batch := t.buf.SampleInto(t.sampleBuf[:0], t.rng, t.cfg.MiniBatch, t.cfg.RecencyBias, t.m.NumNodes())
	t.sampleBuf = batch
	if len(batch) < t.cfg.MiniBatch/2 || len(batch) == 0 {
		return false
	}
	start := time.Now()
	negs := t.negsBuf[:0]
	for i := range batch {
		negs = append(negs, t.sampleNeg(batch[i].Dst))
	}
	t.negsBuf = negs
	t.linkStep.Train(t.enc, t.dec, t.params, t.cfg.ClipNorm, batch, negs)
	t.opt.Step()
	t.opt.ZeroGrad()

	t.trained += int64(len(batch))
	t.steps++
	t.trainNanos += time.Since(start).Nanoseconds()
	return true
}

// TrainStep forces one mini-batch step immediately (no StepEvery gating),
// for benchmarks and tests. Reports whether the buffer held enough events.
func (t *OnlineTrainer) TrainStep() bool {
	t.runMu.Lock()
	defer t.runMu.Unlock()
	return t.step()
}

// holdoutAP scores the holdout set with the given modules on the current
// runtime state and returns the average precision (positives vs their
// frozen negatives). NaN when the holdout is empty.
func (t *OnlineTrainer) holdoutAP(enc *core.Encoder, dec *core.LinkDecoder) float64 {
	n := t.m.NumNodes()
	events, negs := t.hoEvents[:0], t.hoNegs[:0]
	for _, h := range t.holdout {
		if int(h.ev.Src) >= n || int(h.ev.Dst) >= n || int(h.neg) >= n {
			continue
		}
		events = append(events, h.ev)
		negs = append(negs, h.neg)
	}
	t.hoEvents, t.hoNegs = events, negs
	if len(events) == 0 {
		return math.NaN()
	}
	res := t.linkStep.Eval(enc, dec, events, negs)
	scores, labels := t.hoScores[:0], t.hoLabels[:0]
	for i := range events {
		scores = append(scores, res.Pos[i], res.Neg[i])
		labels = append(labels, true, false)
	}
	t.hoScores, t.hoLabels = scores, labels
	return eval.AveragePrecision(scores, labels)
}

// tryPublish gates the candidate on holdout AP against the last published
// version evaluated on the same holdout and runtime state, then publishes
// through SwapParams (copy-on-write) or withholds — rolling the private
// copy back after RollbackPatience consecutive regressions.
func (t *OnlineTrainer) tryPublish() {
	enough := t.validHoldout() >= t.cfg.MinHoldout
	if enough {
		apCand := t.holdoutAP(t.enc, t.dec)
		apRef := t.holdoutAP(t.refEnc, t.refDec)
		if !math.IsNaN(apCand) {
			t.lastAP = apCand // NaN would break the JSON stats encoding
		}
		if !math.IsNaN(apCand) && !math.IsNaN(apRef) && apCand+t.cfg.Tolerance < apRef {
			t.withheld++
			t.regressions++
			if t.regressions >= t.cfg.RollbackPatience {
				for i, p := range t.refParams {
					copy(t.params[i].W.Data, p.W.Data)
				}
				t.opt = nn.NewAdam(t.params, t.cfg.LR)
				t.rollbacks++
				t.regressions = 0
			}
			return
		}
	}
	start := time.Now()
	ps, err := t.m.SwapParams(t.params)
	if err != nil {
		// Architecture mismatch is impossible by construction; treat as a
		// withheld publish rather than crashing the serving process.
		t.withheld++
		return
	}
	t.swapLast = time.Since(start).Nanoseconds()
	t.swapNanos += t.swapLast
	for i, p := range t.params {
		copy(t.refParams[i].W.Data, p.W.Data)
	}
	t.publishes++
	t.regressions = 0
	t.pubLog = append(t.pubLog, Publish{Version: ps.Version(), Fingerprint: ps.Fingerprint()})
}

func (t *OnlineTrainer) validHoldout() int {
	n := t.m.NumNodes()
	c := 0
	for _, h := range t.holdout {
		if int(h.ev.Src) < n && int(h.ev.Dst) < n && int(h.neg) < n {
			c++
		}
	}
	return c
}

// PublishLog returns a copy of the audit log: every version this trainer
// has published (plus the version serving started on), with the
// fingerprint recorded at publish time.
func (t *OnlineTrainer) PublishLog() []Publish {
	t.runMu.Lock()
	defer t.runMu.Unlock()
	return append([]Publish(nil), t.pubLog...)
}

// Stats snapshots trainer health.
func (t *OnlineTrainer) Stats() Stats {
	t.runMu.Lock()
	s := Stats{
		ParamVersion:      t.m.ParamVersion(),
		Trained:           t.trained,
		Steps:             t.steps,
		Publishes:         t.publishes,
		WithheldPublishes: t.withheld,
		Rollbacks:         t.rollbacks,
		LastHoldoutAP:     t.lastAP,
		BufferEvents:      t.buf.Len(),
		HoldoutEvents:     len(t.holdout),
		SwapLastNs:        t.swapLast,
	}
	if t.trainNanos > 0 {
		s.TrainEvPerSec = float64(t.trained) / (float64(t.trainNanos) / 1e9)
	}
	if t.publishes > 0 {
		s.SwapMeanNs = t.swapNanos / t.publishes
	}
	t.runMu.Unlock()
	t.qmu.Lock()
	s.Frozen = t.frozen
	s.Observed = t.observed
	s.DroppedPending = t.droppedPending
	t.qmu.Unlock()
	return s
}
