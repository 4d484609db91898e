package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"apan/internal/async"
	"apan/internal/eval"
)

// Scenario couples a workload generator with the fault profile and invariant
// set of one harness run. The zero fault fields mean "no fault": Parity
// scenarios drive all three stack paths; Saturate runs the gated
// queue-saturation protocol; SlowApply delays the propagation consumer;
// MidCheckpoint snapshots and rewinds mid-stream.
type Scenario struct {
	Name        string
	Description string
	Workload    Workload
	// Labeled scenarios carry ground-truth event labels; the harness reports
	// AP and ROC-AUC of a supervised fraud head on [z_src ‖ e_ij ‖ z_dst]
	// (the paper's Table-3 dynamic-classification protocol), trained on the
	// first half of the streamed labeled events and evaluated on the rest.
	Labeled bool
	// TrainFrac trains each path's model on this fraction of the trace
	// before streaming (identically across paths), so the labeled head
	// reads embeddings from a warmed encoder.
	TrainFrac float64
	// Parity drives the async.Pipeline and HTTP paths alongside the direct
	// path and asserts bitwise score parity.
	Parity bool
	// Saturate runs the deterministic TrySubmit saturation protocol twice
	// and asserts the drop pattern, scores and digest reproduce bitwise.
	Saturate bool
	// SlowApply injects this delay before every apply on the pipeline path
	// (backpressure without drops); conservation is asserted, score drift
	// against the direct path is reported as a metric.
	SlowApply time.Duration
	// MidCheckpoint snapshots mid-stream, finishes, restores and replays the
	// tail, asserting a bitwise-identical second pass.
	MidCheckpoint bool
	// Drift runs the online-continual-learning protocol: the stream is
	// played three times — twice with a frozen trainer (bitwise determinism
	// asserted) and once with the trainer pumped deterministically — and the
	// post-shift holdout AP of the online run must be at least the frozen
	// run's. The no-torn-params invariant audits every served batch's
	// pinned parameter version against the trainer's publish log.
	Drift bool
	// KillRecover kills the serving process at a seeded batch index — in
	// three tail states: clean, mid-record torn write, garbage tail — and
	// recovers from checkpoint + WAL replay-to-watermark. The recovered
	// runtime must be bitwise identical (RuntimeDigest) to an uninterrupted
	// run at the recovery point and again at end of stream.
	KillRecover bool
	// NoisyNeighbor runs the multi-tenant isolation protocol: the trace's
	// flash-crowd burst is attributed to an aggressor tenant with a binding
	// event-time rate cap while steady traffic belongs to an uncapped
	// victim; the victim must lose nothing, the aggressor must be shed at
	// the gate, each tenant's ledger must conserve (submitted = applied +
	// dropped), and the whole protocol must replay bitwise.
	NoisyNeighbor bool
	// EvictPressure reruns the direct path under a binding cold-state
	// eviction budget (a third of the node space): the warm set must stay
	// within budget, evicting runs must be bitwise deterministic, and the
	// labeled AP must stay within a fixed loss bound of the no-eviction
	// reference run.
	EvictPressure bool
	// Failover runs the warm-standby protocol: the leader ships its WAL to a
	// follower that replays continuously, lags behind a seeded pause point,
	// and is promoted when the leader dies — under clean and torn shipped
	// tails, latched fsync errors on the leader's storage, and a follower
	// crash mid-replay. The promoted runtime must be bitwise identical
	// (RuntimeDigest) to the uninterrupted run at the takeover watermark and
	// at end of stream, and double promotion must be fenced.
	Failover bool
}

// Bundled returns the scenario suite the repo ships: the workload ×
// fault matrix ROADMAP's "as many scenarios as you can imagine" asks for,
// kept deterministic so it can gate CI.
func Bundled() []Scenario {
	return []Scenario{
		{Name: "smooth_baseline", Workload: SmoothBaseline, Parity: true,
			Description: "stationary mildly-skewed traffic; parity + determinism anchor"},
		{Name: "flash_crowd", Workload: FlashCrowd, Parity: true,
			Description: "20× burst on a hot set mid-stream (the §1 Black Friday shape)"},
		{Name: "zipf_hotspot", Workload: ZipfHotspot, Parity: true,
			Description: "α=1.6 celebrity skew hammering a few nodes' state and mailboxes"},
		{Name: "node_churn", Workload: NodeChurn, Parity: true,
			Description: "continuous cold-start admission: IDs beyond the constructed node space"},
		{Name: "out_of_order", Workload: OutOfOrder, Parity: true,
			Description: "swapped, duplicated and tied timestamps; §3.6 arrival-order robustness"},
		{Name: "fraud_ring", Workload: FraudRing, Labeled: true, TrainFrac: 0.3,
			Description: "labeled fraud-ring bursts in community traffic; AP/AUC ground truth"},
		{Name: "queue_saturation", Workload: FlashCrowd, Saturate: true,
			Description: "gated consumer + TrySubmit shedding; deterministic drop pattern"},
		{Name: "slow_consumer", Workload: SmoothBaseline, SlowApply: 200 * time.Microsecond,
			Description: "delayed propagation consumer; backpressure, conservation, score drift"},
		{Name: "checkpoint_midstream", Workload: OutOfOrder, MidCheckpoint: true,
			Description: "mid-stream SnapshotRuntime/RestoreRuntime bitwise rewind"},
		{Name: "concept_drift", Workload: ConceptDrift, Drift: true, TrainFrac: 0.3,
			Description: "community rewiring mid-stream; online trainer vs frozen params, torn-param audit"},
		{Name: "kill_recover", Workload: FlashCrowd, KillRecover: true,
			Description: "seeded process kill (clean + torn-write tails); checkpoint + WAL replay must be bitwise"},
		{Name: "failover", Workload: FlashCrowd, Failover: true,
			Description: "log-shipped warm standby promoted after leader death (torn/fsync/follower-crash arms); takeover must be bitwise"},
		{Name: "noisy_neighbor", Workload: FlashCrowd, NoisyNeighbor: true,
			Description: "flash-crowd aggressor tenant vs steady victim; rate-gate shedding, per-tenant conservation, bitwise replay"},
		{Name: "eviction_pressure", Workload: FraudRing, Labeled: true, TrainFrac: 0.3, EvictPressure: true,
			Description: "binding cold-state eviction budget; warm set bounded, bitwise-deterministic, AP loss vs no-eviction reference bounded"},
	}
}

// RunOptions sizes a harness run. Zero values select defaults small enough
// for go test; cmd/apan-bench raises Events for the reported table.
type RunOptions struct {
	Seed      int64 // default 1
	Events    int   // default 2000
	BatchSize int   // default 40
	Nodes     int   // default 96
	MaxNodes  int   // default 4×Nodes (churn headroom)
	EdgeDim   int   // default 16 (divisible by the 2 attention heads)
	QueueCap  int   // default 4 (propagation queue, small to make faults bite)
	Span      float64
	// EvictMaxNodes passes a cold-state eviction budget to every model the
	// run constructs (0 disables); the eviction-pressure driver sets it on
	// its A/B arm only.
	EvictMaxNodes int
}

func (o *RunOptions) normalize() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Events == 0 {
		o.Events = 2000
	}
	if o.BatchSize == 0 {
		o.BatchSize = 40
	}
	if o.Nodes == 0 {
		o.Nodes = 96
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 4 * o.Nodes
	}
	if o.EdgeDim == 0 {
		o.EdgeDim = 16
	}
	if o.QueueCap == 0 {
		o.QueueCap = 4
	}
	if o.Span == 0 {
		o.Span = 3600
	}
}

func (o *RunOptions) params() WorkloadParams {
	return WorkloadParams{Nodes: o.Nodes, MaxNodes: o.MaxNodes, Events: o.Events, EdgeDim: o.EdgeDim, Span: o.Span}
}

// Result is one scenario run's report: stream statistics, fault outcomes,
// labeled metrics when available, and the verdict of every invariant that
// applied. AP/AUC are nil for unlabeled scenarios (JSON cannot carry NaN).
type Result struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Events counts the streamed (scored) events; TrainEvents the prefix
	// consumed by TrainFrac warm-up before streaming. Drop accounting holds
	// over the streamed portion: Events = Applied + Dropped.
	Events      int   `json:"events"`
	TrainEvents int   `json:"train_events,omitempty"`
	Batches     int   `json:"batches"`
	Applied     int   `json:"applied_events"`
	Dropped     int   `json:"dropped_events"`
	MaxDepth    int   `json:"max_queue_depth"`
	SyncMeanU   int64 `json:"sync_mean_us"`
	SyncP99U    int64 `json:"sync_p99_us"`
	// ScoreDrift is the max |score − direct-path score| over batches both
	// paths scored; nonzero only for timing-dependent scenarios.
	ScoreDrift float64  `json:"score_drift"`
	AP         *float64 `json:"ap,omitempty"`
	AUC        *float64 `json:"auc,omitempty"`
	// Drift-scenario metrics: post-shift holdout AP of the online-trained
	// and frozen-parameter runs, and how many parameter versions the online
	// trainer published during the stream.
	OnlineAP          *float64 `json:"online_ap,omitempty"`
	FrozenAP          *float64 `json:"frozen_ap,omitempty"`
	VersionsPublished int      `json:"versions_published,omitempty"`
	// RecoveredEvents is the clean-crash kill-and-recover arm's WAL replay
	// length: events re-applied past the checkpoint watermark.
	RecoveredEvents int `json:"recovered_events,omitempty"`
	// Failover-scenario metrics, from the clean arm: the batch index the
	// promoted follower took over at, and how many lagging events its
	// promotion had to catch up on from the shipped log.
	PromotedBatch  int `json:"promoted_batch,omitempty"`
	TakeoverEvents int `json:"takeover_events,omitempty"`
	// Noisy-neighbor metrics: the per-tenant admission ledgers after the
	// final drain.
	Tenants map[string]async.TenantStats `json:"tenants,omitempty"`
	// Eviction-pressure metrics: the binding budget, how many evictions
	// fired, and the evicting run's labeled AP (AP above holds the
	// no-eviction reference).
	EvictBudget  int      `json:"evict_budget,omitempty"`
	EvictEvicted uint64   `json:"evict_evicted,omitempty"`
	EvictAP      *float64 `json:"evict_ap,omitempty"`

	Invariants []InvariantResult `json:"invariants"`
	Violations []Violation       `json:"violations,omitempty"`
}

// Passed reports whether every checked invariant held.
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// InvariantSummary renders "checked-passing/checked", e.g. "4/4".
func (r *Result) InvariantSummary() string {
	var checked, passed int
	for _, iv := range r.Invariants {
		if iv.Checked {
			checked++
			if iv.Passed {
				passed++
			}
		}
	}
	return fmt.Sprintf("%d/%d", passed, checked)
}

func (r *Result) addInvariant(name string, vs []Violation) {
	r.Invariants = append(r.Invariants, InvariantResult{Name: name, Checked: true, Passed: len(vs) == 0})
	r.Violations = append(r.Violations, vs...)
}

func (r *Result) skipInvariant(name string) {
	r.Invariants = append(r.Invariants, InvariantResult{Name: name, Checked: false})
}

// Run executes one scenario end to end: generate the trace, drive the
// configured paths and faults, check every applicable invariant, and
// aggregate the report. An error means the harness itself failed (model
// construction, HTTP transport); invariant breaches are Violations in the
// Result, not errors.
func Run(sc Scenario, o RunOptions) (*Result, error) {
	o.normalize()
	tr := sc.Workload(rand.New(rand.NewSource(o.Seed)), o.params())
	tr.Name = sc.Name
	maxTime := tr.MaxTime()

	res := &Result{Scenario: sc.Name, Seed: o.Seed}

	// Reference: the direct path, always run, always the parity baseline.
	ref, err := runDirect(tr, o, sc.TrainFrac, sc.Labeled)
	if err != nil {
		return nil, err
	}
	stream := tr.Events[len(tr.Events)-ref.submitted:]
	batches := splitBatches(stream, o.BatchSize)
	res.Events = ref.submitted
	res.TrainEvents = len(tr.Events) - ref.submitted
	res.Batches = len(batches)
	res.Applied = ref.applied
	res.SyncMeanU = ref.hist.Mean().Microseconds()
	res.SyncP99U = ref.hist.Quantile(0.99).Microseconds()

	// Replay determinism: regenerate the trace from the same seed and rerun
	// the direct path on a fresh model; trace, scores and digest must all
	// reproduce bitwise.
	{
		tr2 := sc.Workload(rand.New(rand.NewSource(o.Seed)), o.params())
		tr2.Name = sc.Name
		vs := compareTraces(tr, tr2, sc.Name, o.Seed)
		if vs == nil {
			rep, err := runDirect(tr2, o, sc.TrainFrac, false)
			if err != nil {
				return nil, err
			}
			vs = compareScores(InvReplayDeterism, sc.Name, o.Seed, batches, ref.scores, rep.scores, "run1", "run2")
			if vs == nil && ref.digest != rep.digest {
				vs = []Violation{{Invariant: InvReplayDeterism, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
					Detail: fmt.Sprintf("runtime digest %016x != replay digest %016x (scores matched)", ref.digest, rep.digest)}}
			}
		}
		res.addInvariant(InvReplayDeterism, vs)
	}

	// Mailbox monotonicity and conservation on the reference run.
	res.addInvariant(InvMailboxMonotonic, checkMailboxes(ref.model, sc.Name, o.Seed, maxTime))
	res.addInvariant(InvDropAccounting, checkConservation(ref, batches, sc.Name, o.Seed))

	// Score parity across the serving stack.
	if sc.Parity {
		var vs []Violation
		pipeOut, err := runPipeline(tr, o, sc.TrainFrac, true, 0)
		if err != nil {
			return nil, err
		}
		vs = append(vs, compareScores(InvScoreParity, sc.Name, o.Seed, batches, ref.scores, pipeOut.scores, "direct", "pipeline")...)
		vs = append(vs, checkConservation(pipeOut, batches, sc.Name, o.Seed)...)

		httpOut, err := runHTTP(tr, o, sc.TrainFrac)
		if err != nil {
			return nil, err
		}
		vs = append(vs, compareScores(InvScoreParity, sc.Name, o.Seed, batches, ref.scores, httpOut.scores, "direct", "http")...)
		vs = append(vs, checkConservation(httpOut, batches, sc.Name, o.Seed)...)
		res.addInvariant(InvScoreParity, vs)
	} else {
		res.skipInvariant(InvScoreParity)
	}

	// Queue saturation: deterministic shedding, run twice for bitwise replay.
	if sc.Saturate {
		satA, err := runSaturated(tr, o)
		if err != nil {
			return nil, err
		}
		satB, err := runSaturated(tr, o)
		if err != nil {
			return nil, err
		}
		allBatches := splitBatches(tr.Events, o.BatchSize)
		vs := checkConservation(satA, allBatches, sc.Name, o.Seed)
		vs = append(vs, compareScores(InvReplayDeterism, sc.Name, o.Seed, allBatches, satA.scores, satB.scores, "saturation1", "saturation2")...)
		if satA.digest != satB.digest {
			vs = append(vs, Violation{Invariant: InvReplayDeterism, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
				Detail: fmt.Sprintf("saturation digests differ: %016x vs %016x", satA.digest, satB.digest)})
		}
		vs = append(vs, checkMailboxes(satA.model, sc.Name, o.Seed, maxTime)...)
		res.addInvariant(InvDropAccounting+"_saturated", vs)
		// The table reports the fault path's stream accounting, not the
		// reference run's (which never drops).
		res.Applied = satA.applied
		res.Dropped = satA.droppedEvents(allBatches)
		res.MaxDepth = satA.maxDepth
	}

	// Slow consumer: real backpressure; conservation asserted, drift
	// observed.
	if sc.SlowApply > 0 {
		slow, err := runPipeline(tr, o, sc.TrainFrac, false, sc.SlowApply)
		if err != nil {
			return nil, err
		}
		vs := checkConservation(slow, batches, sc.Name, o.Seed)
		vs = append(vs, checkMailboxes(slow.model, sc.Name, o.Seed, maxTime)...)
		res.addInvariant(InvDropAccounting+"_slow", vs)
		res.ScoreDrift = scoreDrift(ref.scores, slow.scores)
		res.MaxDepth = slow.maxDepth
	}

	// Online continual learning under concept drift: frozen determinism,
	// torn-parameter audit, and the adaptation check.
	if sc.Drift {
		frozenA, err := runDrift(tr, o, sc.TrainFrac, false)
		if err != nil {
			return nil, err
		}
		frozenB, err := runDrift(tr, o, sc.TrainFrac, false)
		if err != nil {
			return nil, err
		}
		res.addInvariant(InvFrozenDeterminism,
			compareDrift(InvFrozenDeterminism, sc.Name, o.Seed, batches, frozenA, frozenB, "frozen1", "frozen2"))

		online, err := runDrift(tr, o, sc.TrainFrac, true)
		if err != nil {
			return nil, err
		}
		vs := checkTornParams(online, sc.Name, o.Seed)
		vs = append(vs, checkTornParams(frozenA, sc.Name, o.Seed)...)
		res.addInvariant(InvNoTornParams, vs)

		onAP := driftAP(batches, online.scores, online.negScores, tr.Shift, tr.Span)
		frAP := driftAP(batches, frozenA.scores, frozenA.negScores, tr.Shift, tr.Span)
		res.OnlineAP, res.FrozenAP = &onAP, &frAP
		res.VersionsPublished = len(online.pubLog) - 1 // minus the attach version
		var avs []Violation
		if math.IsNaN(onAP) || math.IsNaN(frAP) {
			avs = append(avs, Violation{Invariant: InvOnlineAdaptation, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
				Detail: "post-shift AP not computable (no post-shift events in the streamed portion?)"})
		} else if onAP < frAP {
			avs = append(avs, Violation{Invariant: InvOnlineAdaptation, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
				Detail: fmt.Sprintf("online-trained post-shift AP %.4f < frozen-params AP %.4f", onAP, frAP)})
		}
		res.addInvariant(InvOnlineAdaptation, avs)
	} else {
		res.skipInvariant(InvNoTornParams)
		res.skipInvariant(InvFrozenDeterminism)
		res.skipInvariant(InvOnlineAdaptation)
	}

	// Kill-and-recover: crash at a seeded batch (clean and torn tails),
	// recover from checkpoint + WAL, require bitwise digest equality.
	if sc.KillRecover {
		vs, recovered, err := runKillRecover(tr, o, sc.TrainFrac)
		if err != nil {
			return nil, err
		}
		res.RecoveredEvents = recovered
		res.addInvariant(InvKillRecover, vs)
	} else {
		res.skipInvariant(InvKillRecover)
	}

	// Warm-standby failover: log-shipped follower, seeded leader death,
	// promotion must be bitwise at the takeover watermark.
	if sc.Failover {
		vs, promoted, takeover, err := runFailover(tr, o, sc.TrainFrac)
		if err != nil {
			return nil, err
		}
		res.PromotedBatch = promoted
		res.TakeoverEvents = takeover
		res.addInvariant(InvFailover, vs)
	} else {
		res.skipInvariant(InvFailover)
	}

	// Multi-tenant noisy neighbor: aggressor shed at the rate gate, victim
	// isolated, per-tenant conservation, bitwise replay of the protocol.
	if sc.NoisyNeighbor {
		runA, err := runNoisyNeighbor(tr, o)
		if err != nil {
			return nil, err
		}
		runB, err := runNoisyNeighbor(tr, o)
		if err != nil {
			return nil, err
		}
		vs := checkTenantIsolation(runA, sc.Name, o.Seed)
		vs = append(vs, compareScores(InvTenantIsolation, sc.Name, o.Seed, runA.batches, runA.scores, runB.scores, "tenants1", "tenants2")...)
		if runA.digest != runB.digest {
			vs = append(vs, Violation{Invariant: InvTenantIsolation, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
				Detail: fmt.Sprintf("tenant protocol digests differ: %016x vs %016x", runA.digest, runB.digest)})
		}
		res.addInvariant(InvTenantIsolation, vs)
		res.addInvariant(InvTenantAccounting, checkTenantConservation(runA, sc.Name, o.Seed))
		res.Tenants = runA.stats
		// The table reports the tenanted path's stream accounting.
		var applied, dropped int
		for i, b := range runA.batches {
			if runA.dropped[i] {
				dropped += len(b)
			} else {
				applied += len(b)
			}
		}
		res.Applied, res.Dropped = applied, dropped
	} else {
		res.skipInvariant(InvTenantIsolation)
		res.skipInvariant(InvTenantAccounting)
	}

	// Cold-state eviction pressure: warm set bounded, bitwise determinism,
	// labeled AP within the loss bound of the no-eviction reference.
	if sc.EvictPressure {
		vs, evRun, err := checkEvictionPressure(tr, o, sc, ref, batches)
		if err != nil {
			return nil, err
		}
		res.addInvariant(InvEvictionBounded, vs)
		if st, ok := evRun.model.EvictionStats(); ok {
			res.EvictBudget = st.Budget
			res.EvictEvicted = st.Evicted
		}
		if ap := headAP(evRun.samples, o.Seed); !math.IsNaN(ap) {
			res.EvictAP = &ap
		}
	} else {
		res.skipInvariant(InvEvictionBounded)
	}

	// Mid-stream checkpoint/restore rewind.
	if sc.MidCheckpoint {
		first, replay, tailBatches, restoreOK, err := runCheckpointed(tr, o, sc.TrainFrac)
		if err != nil {
			return nil, err
		}
		var vs []Violation
		if !restoreOK {
			vs = append(vs, Violation{Invariant: InvCheckpointReplay, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
				Detail: "RestoreRuntime did not reproduce the snapshot-time digest"})
		}
		vs = append(vs, compareScores(InvCheckpointReplay, sc.Name, o.Seed, tailBatches, first.scores, replay.scores, "tail1", "tail2")...)
		if first.digest != replay.digest {
			vs = append(vs, Violation{Invariant: InvCheckpointReplay, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
				Detail: fmt.Sprintf("tail digests differ after restore: %016x vs %016x", first.digest, replay.digest)})
		}
		res.addInvariant(InvCheckpointReplay, vs)
	} else {
		res.skipInvariant(InvCheckpointReplay)
	}

	// Labeled metrics: the paper's Table-3 protocol — a supervised head on
	// [z_src ‖ e_ij ‖ z_dst] over frozen encoder embeddings, trained on the
	// first half of the streamed labeled events, evaluated on the second.
	// (The raw link score is not used: ring members burst-transact, so their
	// edges quickly look like established pairs to the link decoder.)
	if sc.Labeled {
		half := len(ref.samples) / 2
		trainS, testS := ref.samples[:half], ref.samples[half:]
		if scores := fraudHeadScores(trainS, testS, o.Seed+13); scores != nil {
			labels := make([]bool, len(testS))
			for i := range testS {
				labels[i] = testS[i].y
			}
			if ap := eval.AveragePrecision(scores, labels); !math.IsNaN(ap) {
				res.AP = &ap
			}
			if auc := eval.ROCAUC(scores, labels); !math.IsNaN(auc) {
				res.AUC = &auc
			}
		}
	}
	return res, nil
}
