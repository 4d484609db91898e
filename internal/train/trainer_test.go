package train

import (
	"context"
	"testing"

	"apan/internal/async"
	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/tgraph"
)

func testModel(t *testing.T, seed int64) (*core.Model, []tgraph.Event) {
	t.Helper()
	d := dataset.Wikipedia(dataset.Config{Scale: 0.01, Seed: seed, NoDrift: true})
	for i := range d.Events {
		d.Events[i].Feat = d.Events[i].Feat[:16]
	}
	d.EdgeDim = 16
	m, err := core.New(core.Config{
		NumNodes: d.NumNodes, EdgeDim: 16, Slots: 4, Neighbors: 4,
		Hops: 2, Heads: 2, Hidden: 32, BatchSize: 20, LR: 0.001, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.EvalStream(d.Events[:200], nil)
	return m, d.Events
}

func fastConfig(seed int64) Config {
	return Config{
		BufferCap: 512, RecentCap: 128, MiniBatch: 16, StepEvery: 16,
		PublishEvery: 2, HoldoutEvery: 8, HoldoutCap: 64, MinHoldout: 8,
		LR: 1e-3, Seed: seed,
	}
}

// feed streams events through Observe+Pump in fixed-size batches — the
// deterministic drive mode.
func feed(tr *OnlineTrainer, events []tgraph.Event, batch int) {
	for lo := 0; lo < len(events); lo += batch {
		hi := min(lo+batch, len(events))
		tr.Observe(events[lo:hi])
		tr.Pump()
	}
}

// TestTrainerPublishes: a pumped trainer must step, publish new versions,
// advance the model's served version, and keep an audit log whose last
// entry matches the live published set.
func TestTrainerPublishes(t *testing.T) {
	m, events := testModel(t, 1)
	v0 := m.ParamVersion()
	tr, err := New(m, fastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	feed(tr, events[200:1200], 25)

	st := tr.Stats()
	if st.Steps == 0 || st.Trained == 0 {
		t.Fatalf("trainer never stepped: %+v", st)
	}
	// A holdout check reuses the step's plan, gather and tape and the
	// trainer's own buffers; what allocates is the AP's sort.
	if allocs := testing.AllocsPerRun(5, func() { tr.holdoutAP(tr.enc, tr.dec) }); !raceEnabled && allocs > 3 {
		t.Fatalf("holdoutAP allocates %.0f times per call; want at most 3", allocs)
	}
	if st.Publishes == 0 {
		t.Fatalf("trainer never published: %+v", st)
	}
	if m.ParamVersion() == v0 {
		t.Fatal("served parameter version did not advance")
	}
	log := tr.PublishLog()
	if log[0].Version != v0 {
		t.Fatalf("publish log must start at the attach version %d, got %d", v0, log[0].Version)
	}
	last := log[len(log)-1]
	cur := m.CurrentParams()
	if cur.Version() != last.Version || cur.Fingerprint() != last.Fingerprint {
		t.Fatalf("live set v%d/%016x does not match log tail v%d/%016x",
			cur.Version(), cur.Fingerprint(), last.Version, last.Fingerprint)
	}
	if cur.RecomputeFingerprint() != cur.Fingerprint() {
		t.Fatal("published set was mutated in place after publish")
	}
}

// TestTrainerPumpDeterminism: same seeds, same event sequence → identical
// publish logs (versions and value fingerprints) and identical served
// scores afterwards.
func TestTrainerPumpDeterminism(t *testing.T) {
	run := func() ([]Publish, []float32) {
		m, events := testModel(t, 2)
		tr, err := New(m, fastConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		feed(tr, events[200:1000], 25)
		return tr.PublishLog(), m.Score(events[1000:1040], new(core.Pending))
	}
	logA, scoresA := run()
	logB, scoresB := run()
	if len(logA) != len(logB) {
		t.Fatalf("publish counts differ: %d vs %d", len(logA), len(logB))
	}
	for i := range logA {
		if logA[i] != logB[i] {
			t.Fatalf("publish %d differs: %+v vs %+v", i, logA[i], logB[i])
		}
	}
	for i := range scoresA {
		if scoresA[i] != scoresB[i] {
			t.Fatalf("score %d differs across identical runs", i)
		}
	}
}

// TestFrozenTrainerIsInert: a frozen trainer must ignore events completely —
// no steps, no publishes, version pinned — and Resume must re-enable it.
func TestFrozenTrainerIsInert(t *testing.T) {
	m, events := testModel(t, 3)
	tr, err := New(m, fastConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	v0 := m.ParamVersion()
	tr.Freeze()
	if !tr.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	feed(tr, events[200:800], 25)
	st := tr.Stats()
	if st.Steps != 0 || st.Publishes != 0 || st.Observed != 0 {
		t.Fatalf("frozen trainer did work: %+v", st)
	}
	if m.ParamVersion() != v0 {
		t.Fatal("frozen trainer changed the served version")
	}
	tr.Resume()
	feed(tr, events[200:1200], 25)
	if tr.Stats().Steps == 0 {
		t.Fatal("trainer did not resume")
	}
}

// TestRollbackOnRegression: a destructive learning rate must be caught by
// the holdout gate — publishes withheld, private copy rolled back — keeping
// the served version at its last good weights.
func TestRollbackOnRegression(t *testing.T) {
	m, events := testModel(t, 4)
	cfg := fastConfig(9)
	cfg.LR = 50 // absurd: each step destroys the decoder calibration
	cfg.Tolerance = 0.001
	cfg.RollbackPatience = 2
	tr, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(tr, events[200:1500], 25)
	st := tr.Stats()
	if st.WithheldPublishes == 0 {
		t.Fatalf("holdout gate never withheld a destroyed candidate: %+v", st)
	}
	if st.Rollbacks == 0 {
		t.Fatalf("trainer never rolled back: %+v", st)
	}
}

// TestPipelineFeedsTrainer: WithOnlineTrainer must deliver exactly the
// applied events to the trainer, from the propagation worker.
func TestPipelineFeedsTrainer(t *testing.T) {
	m, events := testModel(t, 5)
	tr, err := New(m, fastConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	pipe := async.New(m, async.WithQueueCap(8), async.WithOnlineTrainer(tr))
	ctx := context.Background()
	var submitted int64
	for lo := 200; lo < 600; lo += 25 {
		if _, _, err := pipe.Submit(ctx, events[lo:lo+25]); err != nil {
			t.Fatal(err)
		}
		submitted += 25
	}
	if err := pipe.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Observed; got != submitted {
		t.Fatalf("trainer observed %d events, pipeline applied %d", got, submitted)
	}
	tr.Pump()
	if tr.Stats().Steps == 0 {
		t.Fatal("trainer never stepped on pipeline-fed events")
	}
}

// TestBackgroundTrainerUnderServing: the background loop must train and
// publish while the pipeline serves, with no deadlock and no data race
// (run under -race in CI).
func TestBackgroundTrainerUnderServing(t *testing.T) {
	m, events := testModel(t, 6)
	tr, err := New(m, fastConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop()
	pipe := async.New(m, async.WithQueueCap(16), async.WithOnlineTrainer(tr))
	ctx := context.Background()
	for lo := 200; lo+25 <= min(2200, len(events)); lo += 25 {
		if _, _, err := pipe.Submit(ctx, events[lo:lo+25]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	tr.Stop()
	if tr.Stats().Observed == 0 {
		t.Fatal("background trainer observed nothing")
	}
}

// TestInferBatchZeroAllocSteadyState: the acceptance guard of the online-
// learning design — with an online trainer wired into the pipeline and at
// least one hot swap behind it, a steady-state Score into a warm Pending on
// the serving path must still allocate nothing.
func TestInferBatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	m, events := testModel(t, 7)
	tr, err := New(m, fastConfig(15))
	if err != nil {
		t.Fatal(err)
	}
	pipe := async.New(m, async.WithQueueCap(16), async.WithOnlineTrainer(tr))
	ctx := context.Background()
	for lo := 200; lo+25 <= 1200; lo += 25 {
		if _, _, err := pipe.Submit(ctx, events[lo:lo+25]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	tr.Pump() // train + publish deterministically
	if tr.Stats().Publishes == 0 {
		t.Fatal("precondition: trainer should have published at least once")
	}

	batch := events[1200:1240]
	var p core.Pending
	for i := 0; i < 3; i++ {
		m.Score(batch, &p) // warm the workspace for the new version
	}
	allocs := testing.AllocsPerRun(50, func() {
		m.Score(batch, &p)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Score allocated %.2f times per op with the trainer enabled, want 0", allocs)
	}
	if err := pipe.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
