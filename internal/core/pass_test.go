package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"apan/internal/nn"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// buildWarm returns a model warmed on the first 200 events of a tiny stream,
// the batch the tests score, and a larger, different batch to dirty a
// workspace with before it is recycled.
func buildWarm(t *testing.T, mutate func(*Config), seed int64) (m *Model, batch, dirty []tgraph.Event) {
	t.Helper()
	ds := tinyData(seed)
	cfg := tinyConfig(ds.NumNodes)
	cfg.Seed = seed
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EvalStream(ds.Events[:200], nil)
	return m, ds.Events[200:240], ds.Events[80:200]
}

// referenceEncode is the forward over fresh storage — a zero-filled gather
// (ReadInputs) and a fresh grad-recording tape, no pooled or recycled
// buffers — with the published parameters: what the workspace path must
// equal bitwise.
func referenceEncode(m *Model, nodes []tgraph.NodeID, times []float64) (*nn.Tape, *nn.Tensor, *EncodeInput) {
	in := ReadInputs(m.st, m.mbox, nodes, times)
	tp := nn.NewTape()
	z, _ := m.cur.Load().enc.Forward(tp, in)
	return tp, z, in
}

// planOf plans events without negatives in a fresh Plan.
func planOf(events []tgraph.Event) *Plan {
	p := &Plan{}
	p.Build(events, nil)
	return p
}

// referenceInfer scores events through referenceEncode and the decoder.
func referenceInfer(m *Model, events []tgraph.Event) (scores []float32, emb *tensor.Matrix, in *EncodeInput) {
	plan := planOf(events)
	tp, z, in := referenceEncode(m, plan.Nodes, plan.Times)
	logits := m.cur.Load().dec.Forward(tp, tp.Gather(z, plan.SrcRow), tp.Gather(z, plan.DstRow))
	scores = make([]float32, len(events))
	for i := range scores {
		scores[i] = tensor.Sigmoid32(logits.Value().Data[i])
	}
	return scores, z.Value(), in
}

// sameGather reports whether a pass's gather equals the reference's in
// every buffer: counts, time deltas, z(t−) and every mail row — rows past a
// node's count are zero in both.
func sameGather(t *testing.T, got, want *EncodeInput) bool {
	if !slices.Equal(got.Counts, want.Counts) || !slices.Equal(got.DTs, want.DTs) ||
		!slices.Equal(got.ZPrev.Data, want.ZPrev.Data) || !slices.Equal(got.Mails.Data, want.Mails.Data) {
		t.Logf("gather differs in counts, time deltas, z(t−) or mails")
		return false
	}
	return true
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestQuickPooledInferenceEquivalence: the pooled workspace + reusable tape
// path must produce bitwise-identical inputs, scores and embeddings to the
// offline forward over fresh buffers, across both ψ mailbox rules and all
// three positional-encoding modes. The recycled pass runs on a twin model,
// on a workspace dirtied by a different, larger batch and into the Pending
// that just held that batch: its scores, rows, row indices and the
// RuntimeDigest after ApplyPending must equal a zero Pending's on a fresh
// workspace (nothing dirty may leak into the next batch).
func TestQuickPooledInferenceEquivalence(t *testing.T) {
	f := func(seedRaw uint8, kv bool, posRaw uint8) bool {
		seed := int64(seedRaw) + 1
		pos := PositionalMode(posRaw % 3)
		mutate := func(c *Config) {
			c.KeyValueMailbox = kv
			c.Positional = pos
		}
		m, batch, dirty := buildWarm(t, mutate, seed)
		twin, _, _ := buildWarm(t, mutate, seed)
		wantScores, wantEmb, wantIn := referenceInfer(m, batch)
		plan := planOf(batch)
		differ := func(pass, what string) bool {
			t.Logf("seed=%d kv=%v pos=%d %s pass: %s differ", seed, kv, pos, pass, what)
			return false
		}
		gathers := func(m *Model, pass string) bool {
			ps := m.acquirePass()
			defer m.releasePass(ps)
			m.GatherInputsInto(&ps.in, &ps.ts, plan.Nodes, plan.Times)
			return sameGather(t, &ps.in, wantIn) || differ(pass, "gathers")
		}

		var fresh, recycled Pending
		if !gathers(m, "first") {
			return false
		}
		m.Score(batch, &fresh)
		switch {
		case !sameBits(fresh.Scores, wantScores):
			return differ("first", "scores")
		case !sameBits(fresh.rows, wantEmb.Data):
			return differ("first", "embeddings")
		case !slices.Equal(fresh.srcRow, plan.SrcRow) || !slices.Equal(fresh.dstRow, plan.DstRow):
			return differ("first", "row indices")
		}

		// The larger batch fills the record and dirties the one workspace,
		// before the gather check and again before the recycled pass.
		twin.Score(dirty, &recycled)
		if !gathers(twin, "recycled") {
			return false
		}
		twin.Score(dirty, &recycled)
		twin.Score(batch, &recycled)
		switch {
		case !sameBits(recycled.Scores, fresh.Scores):
			return differ("recycled", "scores")
		case !sameBits(recycled.rows, fresh.rows):
			return differ("recycled", "embeddings")
		case !slices.Equal(recycled.srcRow, fresh.srcRow) || !slices.Equal(recycled.dstRow, fresh.dstRow):
			return differ("recycled", "row indices")
		}
		m.ApplyPending(&fresh)
		twin.ApplyPending(&recycled)
		return m.RuntimeDigest() == twin.RuntimeDigest() || differ("recycled", "applied runtime digests")
	}
	cfgQ := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfgQ.MaxCount = 4
	}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Fatal(err)
	}
}

// TestPooledEmbedEquivalence: Embed (which releases its workspace
// immediately) agrees with the offline forward too, on a fresh workspace
// and on one recycled from a scored batch.
func TestPooledEmbedEquivalence(t *testing.T) {
	m, batch, dirty := buildWarm(t, nil, 3)
	nodes := []tgraph.NodeID{batch[0].Src, batch[0].Dst, batch[1].Src}
	times := []float64{batch[0].Time, batch[0].Time, batch[1].Time}
	_, z, _ := referenceEncode(m, nodes, times)
	for _, pass := range []string{"first", "recycled"} {
		if got := m.Embed(nodes, times); !slices.Equal(got.Data, z.Value().Data) {
			t.Fatalf("%s pass: pooled Embed differs from the offline forward", pass)
		}
		m.Score(dirty, new(Pending))
	}
}

// TestServingAndTrainingPassesAgree: the serving pass (Score, Embed) and
// the training pass (Step.Eval) are one computation, so on the same warm
// model and parameters they give each endpoint of a batch the same
// embedding, bit for bit. The negatives are nodes outside the batch, so no
// endpoint's query time moves when Step plans them.
func TestServingAndTrainingPassesAgree(t *testing.T) {
	m, batch, _ := buildWarm(t, nil, 7)
	plan := planOf(batch)
	endpoints := plan.Nodes[:plan.Endpoints]
	var negs []tgraph.NodeID
	for n := tgraph.NodeID(0); len(negs) < len(batch); n++ {
		if !slices.Contains(endpoints, n) {
			negs = append(negs, n)
		}
	}
	pv := m.cur.Load()
	step := m.NewStep(nil)
	res := step.Eval(pv.enc, pv.dec, batch, negs)
	if !slices.Equal(step.Plan.Nodes[:step.Plan.Endpoints], endpoints) || !slices.Equal(step.Plan.Times[:step.Plan.Endpoints], plan.Times) {
		t.Fatal("Step planned the batch's endpoints differently from Score")
	}
	d := res.Z.Cols
	train := res.Z.Data[:plan.Endpoints*d]

	var p Pending
	m.Score(batch, &p)
	if !sameBits(p.rows, train) {
		t.Fatal("Score's endpoint rows differ from Step.Eval's")
	}
	if emb := m.Embed(endpoints, plan.Times[:plan.Endpoints]); !sameBits(emb.Data, train) {
		t.Fatal("Embed differs from Step.Eval's endpoint rows")
	}
}

// TestExplainSurvivesRelease: Explain releases its workspace before it
// returns, so the Explanation must own its weights rather than point into
// the pass's pooled tape storage. Detection: the freelist hands the
// released workspace to the next pass, and a one-node Score over
// another node asks the pool for an attention buffer of the same size
// class, so it gets the very buffer Explain's weights were computed in and
// overwrites it; a larger, dirty batch follows. The returned Explanation
// must read the same bits afterwards.
func TestExplainSurvivesRelease(t *testing.T) {
	pooled, batch, dirty := buildWarm(t, nil, 5)
	// Two nodes with several mails each: a single mail's weight is 1
	// whatever the pass, so it could not show an overwrite.
	var withMail []tgraph.NodeID
	for _, ev := range batch {
		if pooled.mbox.Len(ev.Src) > 1 && !slices.Contains(withMail, ev.Src) {
			withMail = append(withMail, ev.Src)
		}
	}
	if len(withMail) < 2 {
		t.Fatalf("%d batch sources have several mails, want 2", len(withMail))
	}
	node, other := withMail[0], withMail[1]
	ex, ok := pooled.Explain(node)
	if !ok {
		t.Fatalf("no explanation for node %d, which has mail", node)
	}
	mean := slices.Clone(ex.MailWeights)
	perHead := make([][]float32, len(ex.PerHead))
	for h := range ex.PerHead {
		perHead[h] = slices.Clone(ex.PerHead[h])
	}
	self := []tgraph.Event{{Src: other, Dst: other, Time: ex.Time + 1, Feat: batch[0].Feat}}
	var p Pending
	pooled.Score(self, &p)
	pooled.Score(dirty, &p)
	if !slices.Equal(ex.MailWeights, mean) {
		t.Fatalf("explanation aliased recycled memory: %v -> %v", mean, ex.MailWeights)
	}
	for h := range perHead {
		if !slices.Equal(ex.PerHead[h], perHead[h]) {
			t.Fatalf("head %d aliased recycled memory: %v -> %v", h, perHead[h], ex.PerHead[h])
		}
	}
}

// TestInferBatchZeroAllocSteadyState is the allocation-regression guard of
// the zero-allocation serving hot path: after warm-up, Score into a warm
// Pending must not allocate.
func TestInferBatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	ds := tinyData(1)
	cfg := tinyConfig(ds.NumNodes)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EvalStream(ds.Events[:200], nil)
	batch := ds.Events[200:240]
	// Warm-up: size the workspace, its tape arena and the Pending.
	var p Pending
	for i := 0; i < 3; i++ {
		m.Score(batch, &p)
	}
	allocs := testing.AllocsPerRun(50, func() {
		m.Score(batch, &p)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Score allocated %.2f times per op, want 0", allocs)
	}
}

// TestInferBatchZeroAllocParallel extends the zero-alloc guard to
// GOMAXPROCS > 1: concurrent scorers, each with its own Pending, must keep
// reusing warm workspaces instead of constructing fresh ones. This regressed once when the
// workspace recycler was a sync.Pool — per-P private slots plus GC
// clearing made concurrent goroutines miss at steady state, so
// infer_parallel_p4/p8 paid ~6/12 allocs/op while p1 stayed at 0. The
// threshold tolerates sub-0.5 allocs/op of runtime scaffolding
// (scheduler, stack growth) but fails on any systematic per-op miss.
func TestInferBatchZeroAllocParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	ds := tinyData(1)
	cfg := tinyConfig(ds.NumNodes)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EvalStream(ds.Events[:200], nil)
	batch := ds.Events[200:240]

	for _, procs := range []int{4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		const warmOps, ops = 8, 300
		var wg, warmWG sync.WaitGroup
		warmed := make(chan struct{})
		start := make(chan struct{})
		wg.Add(procs)
		warmWG.Add(procs)
		for g := 0; g < procs; g++ {
			go func() {
				defer wg.Done()
				var p Pending
				for i := 0; i < warmOps; i++ {
					m.Score(batch, &p)
				}
				warmWG.Done()
				<-warmed
				<-start
				for i := 0; i < ops; i++ {
					m.Score(batch, &p)
				}
			}()
		}
		warmWG.Wait()
		runtime.GC()
		close(warmed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		close(start)
		wg.Wait()
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		perOp := float64(after.Mallocs-before.Mallocs) / float64(procs*ops)
		if perOp >= 0.5 {
			t.Errorf("procs=%d: steady-state parallel Score allocated %.2f times per op, want ~0", procs, perOp)
		}
	}
}

// TestPropagatorScratchReuse: consecutive ProcessBatch calls must agree
// with a propagator that never reuses scratch (fresh instance per batch).
func TestPropagatorScratchReuse(t *testing.T) {
	for _, reduce := range []MailReduce{ReduceMean, ReduceLatest} {
		t.Run(fmt.Sprintf("reduce=%d", reduce), func(t *testing.T) {
			ds := tinyData(2)
			cfg := tinyConfig(ds.NumNodes)
			cfg.Reduce = reduce
			reused, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			events := ds.Events[:300]
			var p Pending
			for lo := 0; lo < len(events); lo += 50 {
				batch := events[lo : lo+50]
				reused.Score(batch, &p)
				reused.ApplyPending(&p)
				// Swap in a brand-new propagator each batch on the control
				// model: no cross-batch scratch survives.
				fresh.prop = NewPropagator(fresh.Cfg, fresh.db, fresh.mbox)
				fresh.Score(batch, &p)
				fresh.ApplyPending(&p)
			}
			n := []tgraph.NodeID{events[0].Src, events[0].Dst, events[299].Src}
			tm := []float64{events[299].Time, events[299].Time, events[299].Time}
			a, b := reused.Embed(n, tm), fresh.Embed(n, tm)
			for i := range a.Data {
				if a.Data[i] != b.Data[i] {
					t.Fatalf("elem %d: reused-scratch %v vs fresh-propagator %v", i, a.Data[i], b.Data[i])
				}
			}
		})
	}
}
