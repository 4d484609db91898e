package scenario

import (
	"fmt"
	"math/rand"
	"testing"
)

// testOptions returns harness sizes small enough that the whole bundled
// suite runs in seconds (and under -race -count=2 in CI's soak job) while
// still crossing every interesting threshold: multiple batches, queue
// saturation, churn past the constructed node space.
func testOptions(t *testing.T) RunOptions {
	t.Helper()
	o := RunOptions{Seed: 1, Events: 600, BatchSize: 30, Nodes: 48, MaxNodes: 160}
	if testing.Short() {
		o.Events = 400
	}
	return o
}

// TestScenarioBundled runs every bundled scenario and requires all checked
// invariants to hold — this is the acceptance gate for the harness.
func TestScenarioBundled(t *testing.T) {
	for _, sc := range Bundled() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc, testOptions(t))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if res.Batches == 0 || res.Applied == 0 {
				t.Fatalf("scenario streamed nothing: %+v", res)
			}
			var checked int
			for _, iv := range res.Invariants {
				if iv.Checked {
					checked++
				}
			}
			if checked < 3 {
				t.Fatalf("only %d invariants checked, want ≥ 3: %+v", checked, res.Invariants)
			}
		})
	}
}

// TestScenarioDetectsNondeterminism proves the harness is not vacuously
// green: a workload that violates the seeded-RNG rule (state leaking across
// regenerations) must be caught by the replay-determinism invariant and
// reported with the event index of the first divergence.
func TestScenarioDetectsNondeterminism(t *testing.T) {
	calls := 0
	leaky := Scenario{
		Name: "leaky_workload",
		Workload: func(rng *rand.Rand, p WorkloadParams) *Trace {
			tr := SmoothBaseline(rng, p)
			// Simulate hidden state the seed does not control (a global
			// counter, wall-clock, map iteration…): the second generation
			// of the "same" trace differs at one event.
			if calls++; calls > 1 && len(tr.Events) > 10 {
				tr.Events[10].Time += 1e-9
			}
			return tr
		},
	}
	res, err := Run(leaky, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == InvReplayDeterism {
			found = true
			if v.EventIndex != 10 {
				t.Errorf("violation points at event %d, want 10: %s", v.EventIndex, v)
			}
		}
	}
	if !found {
		t.Fatalf("nondeterministic workload produced no replay_determinism violation: %+v", res.Invariants)
	}
}

// TestScenarioTraceDeterminism pins the generator-level contract directly:
// equal seeds yield bitwise-equal traces, different seeds do not.
func TestScenarioTraceDeterminism(t *testing.T) {
	o := testOptions(t)
	o.normalize()
	for _, sc := range Bundled() {
		a := sc.Workload(rand.New(rand.NewSource(o.Seed)), o.params())
		b := sc.Workload(rand.New(rand.NewSource(o.Seed)), o.params())
		a.Name, b.Name = sc.Name, sc.Name
		if vs := compareTraces(a, b, sc.Name, o.Seed); vs != nil {
			t.Errorf("%s: same-seed traces differ: %s", sc.Name, vs[0])
		}
		c := sc.Workload(rand.New(rand.NewSource(o.Seed+1)), o.params())
		c.Name = sc.Name
		if vs := compareTraces(a, c, sc.Name, o.Seed); vs == nil {
			t.Errorf("%s: different seeds produced identical traces", sc.Name)
		}
	}
}

// TestScenarioSaturationDropsDeterministically asserts the fault actually
// fires — load shedding must occur, be fully accounted for, and reproduce.
func TestScenarioSaturationDropsDeterministically(t *testing.T) {
	var sat Scenario
	for _, sc := range Bundled() {
		if sc.Saturate {
			sat = sc
		}
	}
	if sat.Name == "" {
		t.Fatal("no saturation scenario bundled")
	}
	res, err := Run(sat, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Dropped == 0 {
		t.Fatal("saturation scenario shed no events; the fault did not fire")
	}
	if res.Applied+res.Dropped != res.Events {
		t.Fatalf("conservation: applied %d + dropped %d != submitted %d", res.Applied, res.Dropped, res.Events)
	}
}

// TestScenarioChurnExercisesAdmission asserts the churn trace actually names
// IDs beyond the constructed node space, so all three paths must grow the
// stores (EnsureNodes / HTTP dynamic admission) to pass.
func TestScenarioChurnExercisesAdmission(t *testing.T) {
	o := testOptions(t)
	o.normalize()
	tr := NodeChurn(rand.New(rand.NewSource(o.Seed)), o.params())
	beyond := 0
	for _, ev := range tr.Events {
		if int(ev.Src) >= tr.NumNodes || int(ev.Dst) >= tr.NumNodes {
			beyond++
		}
		if int(ev.Src) >= tr.MaxNodes || int(ev.Dst) >= tr.MaxNodes {
			t.Fatalf("event names ID ≥ MaxNodes %d: %+v", tr.MaxNodes, ev)
		}
	}
	if beyond == 0 {
		t.Fatal("churn trace never leaves the constructed node space; admission untested")
	}
}

// TestScenarioOutOfOrderHasDisorder asserts the perturbation really produces
// inversions and duplicate timestamps — otherwise the §3.6 scenario
// degenerates to the smooth baseline.
func TestScenarioOutOfOrderHasDisorder(t *testing.T) {
	o := testOptions(t)
	o.normalize()
	tr := OutOfOrder(rand.New(rand.NewSource(o.Seed)), o.params())
	inversions, ties := 0, 0
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Time < tr.Events[i-1].Time {
			inversions++
		}
		if tr.Events[i].Time == tr.Events[i-1].Time {
			ties++
		}
	}
	if inversions == 0 || ties == 0 {
		t.Fatalf("out_of_order trace has %d inversions and %d exact ties; want both > 0", inversions, ties)
	}
}

// TestScenarioFraudLabeled asserts the labeled scenario produces both
// classes and finite ranking metrics.
func TestScenarioFraudLabeled(t *testing.T) {
	var fraud Scenario
	for _, sc := range Bundled() {
		if sc.Labeled {
			fraud = sc
		}
	}
	if fraud.Name == "" {
		t.Fatal("no labeled scenario bundled")
	}
	res, err := Run(fraud, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.AP == nil || res.AUC == nil {
		t.Fatalf("labeled scenario reported no metrics: AP=%v AUC=%v", res.AP, res.AUC)
	}
	if *res.AUC < 0 || *res.AUC > 1 || *res.AP < 0 || *res.AP > 1 {
		t.Fatalf("metrics out of range: AP=%v AUC=%v", *res.AP, *res.AUC)
	}
	// The supervised fraud head must actually separate the classes — the
	// injected feature signature is learnable, so a near-chance AUC means
	// the metric pipeline regressed (e.g. back to raw link scores, which
	// score ring edges as *established pairs*). Deterministic at this seed;
	// observed ≈0.82 (short) / ≈0.94 (long).
	if *res.AUC < 0.7 {
		t.Fatalf("fraud head AUC %.3f ≤ 0.7: labeled metric is uninformative", *res.AUC)
	}
}

// TestScenarioKillRecoverChecked asserts the durability scenario actually
// exercises crash recovery: the invariant is checked (all three crash-tail
// modes), it holds, and the WAL replay re-applied a nonzero number of
// events past the checkpoint watermark.
func TestScenarioKillRecoverChecked(t *testing.T) {
	var kr Scenario
	for _, sc := range Bundled() {
		if sc.KillRecover {
			kr = sc
		}
	}
	if kr.Name == "" {
		t.Fatal("no kill-and-recover scenario bundled")
	}
	res, err := Run(kr, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	found := false
	for _, iv := range res.Invariants {
		if iv.Name == InvKillRecover && iv.Checked {
			found = true
		}
	}
	if !found {
		t.Fatal("kill_recover invariant was not checked")
	}
	if res.RecoveredEvents == 0 {
		t.Fatal("WAL replay recovered no events; the crash landed on the checkpoint watermark and the fault did not bite")
	}
}

// TestScenarioCheckpointReplayChecked asserts the mid-stream rewind
// invariant is actually exercised (not skipped) by its scenario.
func TestScenarioCheckpointReplayChecked(t *testing.T) {
	var cp Scenario
	for _, sc := range Bundled() {
		if sc.MidCheckpoint {
			cp = sc
		}
	}
	if cp.Name == "" {
		t.Fatal("no checkpoint scenario bundled")
	}
	res, err := Run(cp, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, iv := range res.Invariants {
		if iv.Name == InvCheckpointReplay && iv.Checked {
			found = true
			if !iv.Passed {
				t.Errorf("checkpoint replay failed: %v", res.Violations)
			}
		}
	}
	if !found {
		t.Fatal("checkpoint_replay invariant was not checked")
	}
}

// TestScenarioFailoverChecked asserts the warm-standby scenario actually
// exercises promotion: the invariant is checked (all five failure arms),
// it holds, and the clean arm's promotion caught up on a nonzero number of
// lagging shipped events.
func TestScenarioFailoverChecked(t *testing.T) {
	var fo Scenario
	for _, sc := range Bundled() {
		if sc.Failover {
			fo = sc
		}
	}
	if fo.Name == "" {
		t.Fatal("no failover scenario bundled")
	}
	res, err := Run(fo, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	found := false
	for _, iv := range res.Invariants {
		if iv.Name == InvFailover && iv.Checked {
			found = true
		}
	}
	if !found {
		t.Fatal("failover invariant was not checked")
	}
	if res.TakeoverEvents == 0 {
		t.Fatal("promotion caught up on no events; the follower was never behind and the lag window did not bite")
	}
	if res.PromotedBatch == 0 {
		t.Fatal("takeover landed at batch 0; the leader crashed before serving anything")
	}
}

// TestScenarioFailoverSeeds runs the failover scenario across several seeds
// so the seeded geometry (pause, crash, fail, follower-crash points) moves
// around — including across WAL segment rotations and mid-stream
// truncation points.
func TestScenarioFailoverSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed failover sweep skipped in -short")
	}
	var fo Scenario
	for _, sc := range Bundled() {
		if sc.Failover {
			fo = sc
		}
	}
	for _, seed := range []int64{2, 5, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			o := testOptions(t)
			o.Seed = seed
			res, err := Run(fo, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}
