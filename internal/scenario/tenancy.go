package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"apan/internal/async"
	"apan/internal/eval"
	"apan/internal/tgraph"
)

// tenantRun is a noisy-neighbor protocol outcome: the merged submission
// order (batches + per-batch owner), what survived the admission gates, and
// the per-tenant ledgers after the final drain.
type tenantRun struct {
	batches [][]tgraph.Event
	owners  []string
	scores  [][]float32
	dropped []bool
	digest  uint64
	stats   map[string]async.TenantStats
}

const (
	victimTenant    = "victim"
	aggressorTenant = "aggressor"
)

// runNoisyNeighbor executes the multi-tenant isolation protocol over a
// flash-crowd trace:
//
//  1. the trace is partitioned by its burst window — burst-window events are
//     the aggressor's flash crowd, everything else the steady victim's;
//  2. the aggressor's contract caps admission at 2× the background rate
//     (event-time tokens, so the gate is a pure function of the trace), the
//     victim is uncapped;
//  3. per-tenant batches are submitted in merged lead-time order and drained
//     one at a time, so the drop pattern, surviving scores and final digest
//     depend only on (seed, contract) — the harness runs the protocol twice
//     and compares bitwise.
//
// The aggressor's burst runs ~20× the background rate, so most of its
// burst-window batches must shed at the rate gate; the victim must lose
// nothing.
func runNoisyNeighbor(tr *Trace, o RunOptions) (*tenantRun, error) {
	m, err := newModel(tr, o)
	if err != nil {
		return nil, err
	}
	// FlashCrowd's background supplies Events/3 over the span; cap the
	// aggressor at twice that so steady traffic would pass untouched while
	// the 20× burst cannot.
	baseRate := float64(len(tr.Events)) / tr.Span / 3
	pipe := async.New(m,
		async.WithQueueCap(o.QueueCap),
		async.WithTenants(
			async.TenantConfig{ID: victimTenant, Weight: 3, Lane: 0},
			async.TenantConfig{ID: aggressorTenant, Weight: 1, Lane: 1, Rate: 2 * baseRate},
		))

	burstLo, burstHi := 0.4*tr.Span, 0.5*tr.Span
	var vStream, aStream []tgraph.Event
	for _, ev := range tr.Events {
		if ev.Time >= burstLo && ev.Time < burstHi {
			aStream = append(aStream, ev)
		} else {
			vStream = append(vStream, ev)
		}
	}
	vBatches := splitBatches(vStream, o.BatchSize)
	aBatches := splitBatches(aStream, o.BatchSize)

	run := &tenantRun{}
	// Merge the two tenants' batch streams by lead event time — the arrival
	// order an ingest edge would see.
	vi, ai := 0, 0
	for vi < len(vBatches) || ai < len(aBatches) {
		owner := victimTenant
		var b []tgraph.Event
		switch {
		case vi == len(vBatches):
			owner, b = aggressorTenant, aBatches[ai]
			ai++
		case ai == len(aBatches):
			b = vBatches[vi]
			vi++
		case aBatches[ai][0].Time < vBatches[vi][0].Time:
			owner, b = aggressorTenant, aBatches[ai]
			ai++
		default:
			b = vBatches[vi]
			vi++
		}
		run.batches = append(run.batches, b)
		run.owners = append(run.owners, owner)
	}

	ctx := context.Background()
	run.dropped = make([]bool, len(run.batches))
	for i, b := range run.batches {
		ensureBatch(pipe.EnsureNodes, b)
		scores, _, err := pipe.SubmitTenant(ctx, run.owners[i], b)
		switch {
		case errors.Is(err, async.ErrRateLimited):
			run.dropped[i] = true
		case err != nil:
			return nil, fmt.Errorf("scenario: tenant submit %d (%s): %w", i, run.owners[i], err)
		}
		run.scores = append(run.scores, scores)
		// Drain per batch: the apply order, and therefore every later score,
		// is a pure function of the drop pattern — bitwise replayable.
		if err := pipe.Drain(ctx); err != nil {
			return nil, fmt.Errorf("scenario: tenant drain: %w", err)
		}
	}
	if err := pipe.Drain(ctx); err != nil {
		return nil, fmt.Errorf("scenario: tenant drain: %w", err)
	}
	run.stats = pipe.TenantStats()
	if err := pipe.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("scenario: tenant shutdown: %w", err)
	}
	run.digest = m.RuntimeDigest()
	return run, nil
}

// victimSyncP99Bound is the isolation latency bound: the victim's
// synchronous-link p99 must stay within interactive range no matter what
// the aggressor does. The synchronous link never waits on the propagation
// queue, so a breach means aggressor work leaked into the scoring path.
const victimSyncP99Bound = 250 * time.Millisecond

// checkTenantIsolation asserts the noisy-neighbor contract on one run: the
// victim loses nothing, the aggressor is shed at the rate gate (not
// starved silently), and the victim's sync p99 stays bounded.
func checkTenantIsolation(run *tenantRun, scen string, seed int64) []Violation {
	var vs []Violation
	v, vok := run.stats[victimTenant]
	a, aok := run.stats[aggressorTenant]
	if !vok || !aok {
		return []Violation{{Invariant: InvTenantIsolation, Scenario: scen, Seed: seed, EventIndex: -1,
			Detail: fmt.Sprintf("tenant ledgers missing: victim=%v aggressor=%v", vok, aok)}}
	}
	if v.Dropped != 0 {
		vs = append(vs, Violation{Invariant: InvTenantIsolation, Scenario: scen, Seed: seed, EventIndex: firstDropIndex(run, victimTenant),
			Detail: fmt.Sprintf("victim dropped %d of %d submissions under aggressor load", v.Dropped, v.Submitted)})
	}
	if a.RateLimited == 0 {
		vs = append(vs, Violation{Invariant: InvTenantIsolation, Scenario: scen, Seed: seed, EventIndex: -1,
			Detail: "aggressor flash crowd was never rate-limited: the gate is not binding"})
	}
	if v.SyncP99 > victimSyncP99Bound {
		vs = append(vs, Violation{Invariant: InvTenantIsolation, Scenario: scen, Seed: seed, EventIndex: -1,
			Detail: fmt.Sprintf("victim sync p99 %v exceeds %v under aggressor load", v.SyncP99, victimSyncP99Bound)})
	}
	return vs
}

// firstDropIndex maps a tenant's first dropped batch to its global stream
// event index, for the (seed, event) repro line.
func firstDropIndex(run *tenantRun, tenant string) int {
	idx := 0
	for i, b := range run.batches {
		if run.owners[i] == tenant && run.dropped[i] {
			return idx
		}
		idx += len(b)
	}
	return -1
}

// checkTenantConservation asserts the per-tenant accounting law after the
// final drain: every submission that entered a tenant's ledger is applied
// or dropped — submitted = applied + dropped, per tenant, no silent loss.
func checkTenantConservation(run *tenantRun, scen string, seed int64) []Violation {
	var vs []Violation
	for id, st := range run.stats {
		if st.Applied+st.Dropped != st.Submitted {
			vs = append(vs, Violation{Invariant: InvTenantAccounting, Scenario: scen, Seed: seed, EventIndex: -1,
				Detail: fmt.Sprintf("tenant %s: submitted %d, applied %d + dropped %d = %d",
					id, st.Submitted, st.Applied, st.Dropped, st.Applied+st.Dropped)})
		}
		if st.QueueDepth != 0 {
			vs = append(vs, Violation{Invariant: InvTenantAccounting, Scenario: scen, Seed: seed, EventIndex: -1,
				Detail: fmt.Sprintf("tenant %s: queue depth %d after drain", id, st.QueueDepth)})
		}
	}
	return vs
}

// evictBudget picks the binding cold-state budget for the eviction-pressure
// scenario: a third of the constructed node space, so steady traffic over
// the full population must evict constantly.
func evictBudget(o RunOptions) int {
	b := o.Nodes / 3
	if b < 1 {
		b = 1
	}
	return b
}

// headAP trains the fraud head on the first half of the labeled samples and
// returns its average precision on the second half — the same Table-3
// protocol the labeled harness reports, reusable for A/B comparisons.
func headAP(samples []labeledSample, seed int64) float64 {
	half := len(samples) / 2
	trainS, testS := samples[:half], samples[half:]
	scores := fraudHeadScores(trainS, testS, seed+13)
	if scores == nil {
		return math.NaN()
	}
	labels := make([]bool, len(testS))
	for i := range testS {
		labels[i] = testS[i].y
	}
	return eval.AveragePrecision(scores, labels)
}

// maxEvictAPLoss bounds how much labeled AP cold-state eviction may cost
// against the unbounded-memory reference on the same trace: re-admitted
// nodes warm-start from neighbors, so detection quality must degrade
// gracefully, not collapse.
const maxEvictAPLoss = 0.20

// checkEvictionPressure drives the direct path twice under a binding
// eviction budget and asserts: evictions actually fire, the warm set never
// exceeds the budget, both runs are bitwise identical (scores and digest —
// the property WAL replay of an evicting run depends on), and the labeled
// AP stays within maxEvictAPLoss of the no-eviction reference run. It
// returns the violations plus the evicting run's stats for the report.
func checkEvictionPressure(tr *Trace, o RunOptions, sc Scenario, ref *runOutcome, batches [][]tgraph.Event) ([]Violation, *runOutcome, error) {
	o2 := o
	o2.EvictMaxNodes = evictBudget(o)
	evA, err := runDirect(tr, o2, sc.TrainFrac, true)
	if err != nil {
		return nil, nil, err
	}
	evB, err := runDirect(tr, o2, sc.TrainFrac, false)
	if err != nil {
		return nil, nil, err
	}

	var vs []Violation
	st, ok := evA.model.EvictionStats()
	if !ok {
		return []Violation{{Invariant: InvEvictionBounded, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
			Detail: "eviction stats unavailable with a budget configured"}}, evA, nil
	}
	if st.Evicted == 0 {
		vs = append(vs, Violation{Invariant: InvEvictionBounded, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
			Detail: fmt.Sprintf("budget %d of %d nodes never evicted: pressure scenario is not binding", st.Budget, o.Nodes)})
	}
	if st.Tracked > st.Budget {
		vs = append(vs, Violation{Invariant: InvEvictionBounded, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
			Detail: fmt.Sprintf("warm set %d exceeds budget %d", st.Tracked, st.Budget)})
	}
	vs = append(vs, compareScores(InvEvictionBounded, sc.Name, o.Seed, batches, evA.scores, evB.scores, "evict1", "evict2")...)
	if evA.digest != evB.digest {
		vs = append(vs, Violation{Invariant: InvEvictionBounded, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
			Detail: fmt.Sprintf("evicting runs diverged: digest %016x vs %016x", evA.digest, evB.digest)})
	}
	refAP := headAP(ref.samples, o.Seed)
	evAP := headAP(evA.samples, o.Seed)
	switch {
	case math.IsNaN(refAP) || math.IsNaN(evAP):
		vs = append(vs, Violation{Invariant: InvEvictionBounded, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
			Detail: fmt.Sprintf("labeled AP not computable (ref %v, evict %v)", refAP, evAP)})
	case evAP < refAP-maxEvictAPLoss:
		vs = append(vs, Violation{Invariant: InvEvictionBounded, Scenario: sc.Name, Seed: o.Seed, EventIndex: -1,
			Detail: fmt.Sprintf("eviction AP %.4f fell more than %.2f below reference AP %.4f", evAP, maxEvictAPLoss, refAP)})
	}
	return vs, evA, nil
}
