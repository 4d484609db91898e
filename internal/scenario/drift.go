package scenario

import (
	"fmt"
	"math/rand"

	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/eval"
	"apan/internal/tgraph"
	"apan/internal/train"
)

// driftOutcome extends a run with what the continual-learning invariants
// need: the negative-twin scores that make holdout AP computable, the
// parameter version every batch was pinned to, and the trainer's publish
// log.
type driftOutcome struct {
	*runOutcome
	negScores [][]float32
	versions  []uint64 // ParamVersion pinned by each batch's Score
	pubLog    []train.Publish
	trainer   *train.OnlineTrainer
}

// driftTrainerConfig sizes the online trainer for harness runs: small
// enough to step and publish many times within a few hundred events, fully
// seeded, with an aggressive-but-gated learning rate. Deterministic under
// Pump.
func driftTrainerConfig(seed int64) train.Config {
	return train.Config{
		BufferCap: 1024, RecentCap: 256, RecencyBias: 0.95,
		MiniBatch: 48, StepEvery: 5, PublishEvery: 1,
		// The holdout ring is deliberately short-memoried (the last ~256
		// observed events): under drift, a long holdout judges the adapting
		// candidate against the dead rule and the gate would fight the
		// adaptation it exists to protect.
		HoldoutEvery: 8, HoldoutCap: 32, MinHoldout: 12,
		LR: 0.015, Tolerance: 0.08, RollbackPatience: 6,
		Seed: seed + 97,
	}
}

// newDriftModel builds the drift paths' model: the harness architecture
// with an online-scale learning rate, so the pre-shift warm-up actually
// fits the intra-community rule the shift then invalidates.
func newDriftModel(tr *Trace, o RunOptions) (*core.Model, error) {
	return core.New(core.Config{
		NumNodes: tr.NumNodes, EdgeDim: tr.EdgeDim,
		Slots: 6, Neighbors: 5, Hops: 2, Heads: 2, Hidden: 32,
		BatchSize: o.BatchSize, Seed: o.Seed + 7, LR: 0.01,
	})
}

// prepDriftModel warms the model on the pre-shift prefix for several
// epochs (identically in every drift run), so the frozen baseline enters
// the shift with a genuinely fitted rule.
func prepDriftModel(m *core.Model, tr *Trace, trainFrac float64) []tgraph.Event {
	stream := tr.Events
	cut := int(trainFrac * float64(len(stream)))
	if cut == 0 {
		return stream
	}
	ns := dataset.NewNegSampler(tr.MaxNodes)
	for e := 0; e < 3; e++ {
		m.ResetRuntime()
		m.TrainEpoch(stream[:cut], ns)
	}
	return stream[cut:]
}

// runDrift drives the stream through the direct path with an online trainer
// attached (pumped deterministically after each applied batch) or frozen.
// For every batch it also scores a negative-twin batch — same sources and
// times, destinations drawn from the observed-destination pool (§4.2's
// P_n(v)) — through the side-effect-free Score, so stream AP is
// measurable without touching the runtime state. The frozen variant
// constructs the trainer and freezes it: observations must be complete
// no-ops, which the frozen-determinism invariant checks bitwise.
func runDrift(tr *Trace, o RunOptions, trainFrac float64, online bool) (*driftOutcome, error) {
	m, err := newDriftModel(tr, o)
	if err != nil {
		return nil, err
	}
	stream := prepDriftModel(m, tr, trainFrac)
	tn, err := train.New(m, driftTrainerConfig(o.Seed))
	if err != nil {
		return nil, err
	}
	if !online {
		tn.Freeze()
	}
	batches := splitBatches(stream, o.BatchSize)
	out := &driftOutcome{
		runOutcome: &runOutcome{model: m, submitted: len(stream), dropped: make([]bool, len(batches))},
		trainer:    tn,
	}
	base := m.DB().G.NumEvents()
	negRng := rand.New(rand.NewSource(o.Seed + 31))
	ns := dataset.NewNegSampler(tr.MaxNodes)
	var pos, neg core.Pending
	for _, b := range batches {
		ensureBatch(m.EnsureNodes, b)
		// Negative twin: same src/time, destination from the observed pool.
		// Scored back-to-back with the positives so both read the same
		// state; Score has no side effects.
		negB := make([]tgraph.Event, len(b))
		for i, ev := range b {
			neg := ns.Sample(negRng, ev.Dst)
			negB[i] = tgraph.Event{Src: ev.Src, Dst: neg, Time: ev.Time, Label: -1}
		}
		out.scores = append(out.scores, append([]float32(nil), m.Score(b, &pos)...))
		out.versions = append(out.versions, pos.ParamVersion())
		out.negScores = append(out.negScores, append([]float32(nil), m.Score(negB, &neg)...))
		m.ApplyPending(&pos)
		for i := range b {
			ns.Observe(&b[i])
		}
		// Feed and pump the trainer deterministically, as the propagation
		// worker would (Observe), then inline instead of on a goroutine.
		tn.Observe(b)
		tn.Pump()
	}
	out.applied = m.DB().G.NumEvents() - base
	out.digest = m.RuntimeDigest()
	out.pubLog = tn.PublishLog()
	return out, nil
}

// driftAP computes average precision over the post-shift events, pairing
// each positive with its negative twin. The first 15% of the post-shift
// window is excluded as a grace period: no trainer can have adapted to a
// rule before observing examples of it, so including the detection lag
// would measure reaction latency, not adapted quality — both runs are
// evaluated over the identical window either way.
func driftAP(batches [][]tgraph.Event, scores, negScores [][]float32, shift, span float64) float64 {
	from := shift + 0.15*(span-shift)
	var s []float32
	var l []bool
	for bi, b := range batches {
		for i := range b {
			if b[i].Time < from {
				continue
			}
			s = append(s, scores[bi][i], negScores[bi][i])
			l = append(l, true, false)
		}
	}
	return eval.AveragePrecision(s, l)
}

// checkTornParams is the no-torn-params invariant: every served batch must
// be attributable to exactly one published version (pinned version appears
// in the publish log, versions never move backwards under this sequential
// driver), and the published sets must be bitwise intact — the live set's
// values re-hash to the fingerprint recorded when it was published.
func checkTornParams(out *driftOutcome, scen string, seed int64) []Violation {
	var vs []Violation
	mk := func(idx int, detail string) {
		vs = append(vs, Violation{Invariant: InvNoTornParams, Scenario: scen, Seed: seed, EventIndex: idx, Detail: detail})
	}
	known := make(map[uint64]uint64, len(out.pubLog))
	for _, p := range out.pubLog {
		known[p.Version] = p.Fingerprint
	}
	var last uint64
	for i, v := range out.versions {
		if _, ok := known[v]; !ok {
			mk(i, fmt.Sprintf("batch %d pinned version %d, which was never published", i, v))
			return vs
		}
		if v < last {
			mk(i, fmt.Sprintf("batch %d served version %d after version %d", i, v, last))
			return vs
		}
		last = v
	}
	cur := out.model.CurrentParams()
	if got := cur.RecomputeFingerprint(); got != cur.Fingerprint() {
		mk(-1, fmt.Sprintf("published set v%d mutated in place: fingerprint %016x now hashes to %016x",
			cur.Version(), cur.Fingerprint(), got))
	}
	if fp, ok := known[cur.Version()]; !ok {
		mk(-1, fmt.Sprintf("live version %d missing from the publish log", cur.Version()))
	} else if fp != cur.Fingerprint() {
		mk(-1, fmt.Sprintf("live version %d fingerprint %016x, publish log recorded %016x",
			cur.Version(), cur.Fingerprint(), fp))
	}
	return vs
}

// compareDrift asserts two drift runs are bitwise identical (scores,
// negative-twin scores, runtime digest) — the frozen-determinism invariant.
func compareDrift(inv, scen string, seed int64, batches [][]tgraph.Event, a, b *driftOutcome, nameA, nameB string) []Violation {
	vs := compareScores(inv, scen, seed, batches, a.scores, b.scores, nameA, nameB)
	vs = append(vs, compareScores(inv, scen, seed, batches, a.negScores, b.negScores, nameA+"_neg", nameB+"_neg")...)
	if a.digest != b.digest {
		vs = append(vs, Violation{Invariant: inv, Scenario: scen, Seed: seed, EventIndex: -1,
			Detail: fmt.Sprintf("%s digest %016x != %s digest %016x", nameA, a.digest, nameB, b.digest)})
	}
	return vs
}
