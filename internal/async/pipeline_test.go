package async

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apan/internal/core"
	"apan/internal/gdb"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

func testModel(t *testing.T, latency gdb.LatencyModel) *core.Model {
	t.Helper()
	db := gdb.New(tgraph.New(8))
	db.Latency = latency
	db.Sleep = latency != nil
	cfg := core.Config{
		NumNodes: 8, EdgeDim: 8, Slots: 4, Neighbors: 4,
		Hops: 2, Heads: 2, Hidden: 16, BatchSize: 4, Seed: 1,
	}
	m, err := core.NewWithDB(cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func feat() []float32 { return make([]float32, 8) }

// parityBatches is a fixed stream over testModel's nodes: three-event
// batches with repeated endpoints and nonzero features.
func parityBatches(n int) [][]tgraph.Event {
	batches := make([][]tgraph.Event, n)
	for b := range batches {
		evs := make([]tgraph.Event, 3)
		for i := range evs {
			k := 3*b + i
			f := feat()
			for j := range f {
				f[j] = float32((k*7+j*3)%11)/11 - 0.5
			}
			evs[i] = tgraph.Event{Src: tgraph.NodeID(k % 5), Dst: tgraph.NodeID((3*k + 1) % 8), Time: float64(k + 1), Feat: f}
		}
		batches[b] = evs
	}
	return batches
}

// directRun is the reference a pipeline must match: Score and ApplyPending
// called in line on m. The batches of one group are all
// scored before any is applied — what a parked applier does to a queue —
// and a batch in shed is scored but never applied. It returns each batch's
// scores.
func directRun(m *core.Model, batches [][]tgraph.Event, groups [][]int, shed map[int]bool) [][]float32 {
	out := make([][]float32, len(batches))
	for _, g := range groups {
		scored := make([]core.Pending, len(g))
		for j, i := range g {
			out[i] = append([]float32(nil), m.Score(batches[i], &scored[j])...)
		}
		for j, i := range g {
			if !shed[i] {
				m.ApplyPending(&scored[j])
			}
		}
	}
	return out
}

// serialGroups is one group per batch: each is applied before the next scores.
func serialGroups(n int) [][]int {
	g := make([][]int, n)
	for i := range g {
		g[i] = []int{i}
	}
	return g
}

// samePass fails unless every batch the pipeline accepted scored bit for bit
// as the reference did and the two models' runtime state is identical.
func samePass(t *testing.T, got, want [][]float32, shed map[int]bool, mp, md *core.Model) {
	t.Helper()
	for i := range want {
		if shed[i] {
			if got[i] != nil {
				t.Fatalf("batch %d was shed but returned scores", i)
			}
			continue
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("batch %d: %d scores, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("batch %d score %d: pipeline %v direct %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if a, b := mp.RuntimeDigest(), md.RuntimeDigest(); a != b {
		t.Fatalf("runtime digest: pipeline %016x direct %016x", a, b)
	}
}

// TestPipelineMatchesSynchronousApply: whichever way a batch travels the
// pipeline — logged, through the tenant scheduler, behind a parked applier
// or past a shed neighbour — the pipeline must return exactly the scores and
// leave exactly the state of the direct Score+ApplyPending loop.
func TestPipelineMatchesSynchronousApply(t *testing.T) {
	ctx := context.Background()
	batches := parityBatches(8)

	// submitSerially submits each batch and drains before the next, so the
	// pipeline's state evolution is the serial reference's.
	submitSerially := func(t *testing.T, submit func([]tgraph.Event) ([]float32, time.Duration, error), p *Pipeline) [][]float32 {
		out := make([][]float32, len(batches))
		for i, b := range batches {
			scores, _, err := submit(b)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = scores
			if err := p.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		return out
	}
	submit := func(p *Pipeline) func([]tgraph.Event) ([]float32, time.Duration, error) {
		return func(b []tgraph.Event) ([]float32, time.Duration, error) { return p.Submit(ctx, b) }
	}

	t.Run("serial", func(t *testing.T) {
		mp, md := testModel(t, nil), testModel(t, nil)
		p := New(mp, WithQueueCap(4))
		got := submitSerially(t, submit(p), p)
		samePass(t, got, directRun(md, batches, serialGroups(len(batches)), nil), nil, mp, md)
	})

	t.Run("wal", func(t *testing.T) {
		// The log records what the applier applies, so the segments must be
		// byte-identical too.
		mp, md := testModel(t, nil), testModel(t, nil)
		dirP, dirD := t.TempDir(), t.TempDir()
		for _, x := range []struct {
			m   *core.Model
			dir string
		}{{mp, dirP}, {md, dirD}} {
			l, err := wal.Open(wal.Options{Dir: x.dir, Policy: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			if err := x.m.AttachWAL(l); err != nil {
				t.Fatal(err)
			}
		}
		p := New(mp, WithQueueCap(4))
		got := submitSerially(t, submit(p), p)
		want := directRun(md, batches, serialGroups(len(batches)), nil)
		samePass(t, got, want, nil, mp, md)
		for _, m := range []*core.Model{mp, md} {
			if err := m.DetachWAL().Close(); err != nil {
				t.Fatal(err)
			}
		}
		segP, segD := readDir(t, dirP), readDir(t, dirD)
		if len(segP) == 0 || len(segP) != len(segD) {
			t.Fatalf("segments: pipeline %d, direct %d", len(segP), len(segD))
		}
		for name, b := range segD {
			if !bytes.Equal(segP[name], b) {
				t.Fatalf("segment %s differs: pipeline %d bytes, direct %d", name, len(segP[name]), len(b))
			}
		}
	})

	t.Run("tenancy", func(t *testing.T) {
		mp, md := testModel(t, nil), testModel(t, nil)
		p := New(mp, WithQueueCap(4), WithTenants(TenantConfig{ID: "acme", Weight: 2}))
		got := submitSerially(t, func(b []tgraph.Event) ([]float32, time.Duration, error) {
			return p.SubmitTenant(ctx, "acme", b)
		}, p)
		samePass(t, got, directRun(md, batches, serialGroups(len(batches)), nil), nil, mp, md)
	})

	// parkedPipeline parks the applier on its first batch until release is
	// closed; parked receives once it is parked.
	parkedPipeline := func(m *core.Model, queueCap int) (p *Pipeline, parked <-chan struct{}, release chan struct{}) {
		in := make(chan struct{}, 1)
		release = make(chan struct{})
		var once sync.Once
		p = New(m, WithQueueCap(queueCap), WithBeforeApply(func([]tgraph.Event) {
			once.Do(func() {
				in <- struct{}{}
				<-release
			})
		}))
		return p, in, release
	}

	t.Run("parked", func(t *testing.T) {
		// Every batch is scored while the applier is parked on the first, so
		// the queue is len(batches)−1 deep and all score against the
		// starting state.
		mp, md := testModel(t, nil), testModel(t, nil)
		p, parked, release := parkedPipeline(mp, len(batches))
		got := make([][]float32, len(batches))
		for i, b := range batches {
			scores, _, err := p.Submit(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = scores
			if i == 0 {
				<-parked
			}
		}
		if d := p.QueueDepth(); d != len(batches) {
			t.Fatalf("queue depth %d behind a parked applier, want %d", d, len(batches))
		}
		close(release)
		if err := p.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(batches))
		for i := range all {
			all[i] = i
		}
		samePass(t, got, directRun(md, batches, [][]int{all}, nil), nil, mp, md)
	})

	t.Run("shed", func(t *testing.T) {
		// Queue cap 1 behind a parked applier: batch 0 is on the applier,
		// batch 1 fills the queue and batches 2–4 are shed. After the drain
		// the rest go through one at a time.
		mp, md := testModel(t, nil), testModel(t, nil)
		p, parked, release := parkedPipeline(mp, 1)
		got := make([][]float32, len(batches))
		shed := map[int]bool{}
		for i, b := range batches[:5] {
			scores, _, err := p.TrySubmit(b)
			switch {
			case err == nil:
			case errors.Is(err, ErrQueueFull):
				shed[i] = true
			default:
				t.Fatal(err)
			}
			got[i] = scores
			if i == 0 {
				<-parked
			}
		}
		if len(shed) != 3 || shed[0] || shed[1] {
			t.Fatalf("shed %v, want batches 2–4", shed)
		}
		close(release)
		if err := p.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		groups := [][]int{{0, 1, 2, 3, 4}}
		for i := 5; i < len(batches); i++ {
			scores, _, err := p.TrySubmit(batches[i])
			if err != nil {
				t.Fatal(err)
			}
			got[i] = scores
			if err := p.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			groups = append(groups, []int{i})
		}
		if err := p.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		samePass(t, got, directRun(md, batches, groups, shed), shed, mp, md)
	})
}

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestSyncLatencyExcludesGraphQueryCost(t *testing.T) {
	// With a slow simulated graph DB, the synchronous submit latency must
	// stay far below the asynchronous propagation latency — the core claim
	// of the paper's architecture.
	ctx := context.Background()
	const perQuery = 2 * time.Millisecond
	m := testModel(t, gdb.Constant(perQuery))
	p := New(m, WithQueueCap(8))
	defer p.Shutdown(context.Background())

	for i := 0; i < 5; i++ {
		ev := []tgraph.Event{{Src: tgraph.NodeID(i % 4), Dst: tgraph.NodeID((i + 1) % 4), Time: float64(i + 1), Feat: feat()}}
		if _, lat, err := p.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		} else if lat > perQuery {
			t.Fatalf("sync latency %v not decoupled from DB latency %v", lat, perQuery)
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Processed != 5 || st.Submitted != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if st.AsyncMean <= st.SyncMean {
		t.Fatalf("async mean %v should exceed sync mean %v behind a slow DB", st.AsyncMean, st.SyncMean)
	}
	if m.DB().Stats().Simulated == 0 {
		t.Fatal("no simulated latency recorded")
	}
}

func TestPipelineBackpressureAndClose(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, gdb.Constant(time.Millisecond))
	p := New(m, WithQueueCap(1))
	for i := 0; i < 4; i++ {
		ev := []tgraph.Event{{Src: 0, Dst: 1, Time: float64(i + 1), Feat: feat()}}
		if _, _, err := p.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	p.Shutdown(context.Background())
	st := p.Stats()
	if st.Processed != 4 {
		t.Fatalf("close must drain: processed %d", st.Processed)
	}
	if st.MaxQueueDepth < 1 {
		t.Fatalf("queue depth never observed: %+v", st)
	}
	if _, _, err := p.Submit(ctx, []tgraph.Event{{Src: 0, Dst: 1, Time: 9, Feat: feat()}}); err != ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
	p.Shutdown(context.Background()) // idempotent
}

func TestPipelineToleratesOutOfOrderBatches(t *testing.T) {
	// Distributed collectors deliver slightly out-of-order batches; the
	// pipeline must stay consistent (sorted mailbox readout + sorted
	// incidence insertion) and never corrupt state.
	ctx := context.Background()
	m := testModel(t, nil)
	p := New(m, WithQueueCap(8))
	defer p.Shutdown(context.Background())
	batches := [][]tgraph.Event{
		{{Src: 0, Dst: 1, Time: 5, Feat: feat()}},
		{{Src: 1, Dst: 2, Time: 3, Feat: feat()}}, // late arrival
		{{Src: 2, Dst: 3, Time: 4, Feat: feat()}},
	}
	for _, b := range batches {
		if _, _, err := p.Submit(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if m.DB().G.NumEvents() != 3 {
		t.Fatalf("events: %d", m.DB().G.NumEvents())
	}
	// Node 1's incidence list must be time-sorted despite arrival order.
	incs := m.DB().G.MostRecentNeighbors(1, 100, 10, nil)
	if len(incs) != 2 || incs[0].Time != 5 || incs[1].Time != 3 {
		t.Fatalf("incidences not time-sorted: %+v", incs)
	}
}

func TestPipelineConcurrentDrainSafety(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, nil)
	p := New(m, WithQueueCap(16))
	defer p.Shutdown(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.Drain(ctx)
	}()
	for i := 0; i < 20; i++ {
		ev := []tgraph.Event{{Src: tgraph.NodeID(i % 4), Dst: tgraph.NodeID((i + 2) % 4), Time: float64(i + 1), Feat: feat()}}
		if _, _, err := p.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := p.Stats().Processed; got != 20 {
		t.Fatalf("processed %d", got)
	}
}

func TestSubmitContextCancellation(t *testing.T) {
	// A Submit blocked on backpressure must return when its context is
	// cancelled, without corrupting state or leaking the scored batch.
	m := testModel(t, gdb.Constant(5*time.Millisecond))
	p := New(m, WithQueueCap(1))
	defer p.Shutdown(context.Background())

	ctx := context.Background()
	// Fill the queue and keep the worker busy.
	for i := 0; i < 2; i++ {
		ev := []tgraph.Event{{Src: 0, Dst: 1, Time: float64(i + 1), Feat: feat()}}
		if _, _, err := p.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := p.Submit(cctx, []tgraph.Event{{Src: 1, Dst: 2, Time: 9, Feat: feat()}})
		errCh <- err
	}()
	cancel()
	select {
	case err := <-errCh:
		// Either the cancel won, or the queue freed first — both are legal.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Submit never returned")
	}

	// An already-cancelled context fails fast without scoring.
	before := p.Stats().Submitted
	if _, _, err := p.Submit(cctx, []tgraph.Event{{Src: 1, Dst: 2, Time: 10, Feat: feat()}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled submit: %v", err)
	}
	if p.Stats().Submitted != before {
		t.Fatal("pre-cancelled submit must not score")
	}
}

func TestTrySubmitShedsLoadWhenQueueFull(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, gdb.Constant(20*time.Millisecond))
	p := New(m, WithQueueCap(1))
	defer p.Shutdown(context.Background())

	// Saturate: one batch in flight on the worker plus a full queue.
	sawFull := false
	for i := 0; i < 16; i++ {
		ev := []tgraph.Event{{Src: 0, Dst: 1, Time: float64(i + 1), Feat: feat()}}
		_, _, err := p.TrySubmit(ev)
		switch {
		case err == nil:
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatal(err)
		}
		if sawFull {
			break
		}
	}
	if !sawFull {
		t.Fatal("TrySubmit never shed load with a saturated queue")
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Processed >= st.Submitted {
		t.Fatalf("shed batches must not be applied: %+v", st)
	}
}

func TestDrainHonorsContext(t *testing.T) {
	m := testModel(t, gdb.Constant(50*time.Millisecond))
	p := New(m, WithQueueCap(8))
	defer p.Shutdown(context.Background())
	if _, _, err := p.Submit(context.Background(), []tgraph.Event{{Src: 0, Dst: 1, Time: 1, Feat: feat()}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain under deadline: %v", err)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSubmitShutdownStress hammers Submit from many goroutines
// while Shutdown runs — the send-on-closed-channel race of the pre-v1 API.
// Run under -race.
func TestConcurrentSubmitShutdownStress(t *testing.T) {
	for round := 0; round < 8; round++ {
		m := testModel(t, nil)
		p := New(m, WithQueueCap(2))

		const goroutines = 8
		var accepted, rejected atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 25; i++ {
					ev := []tgraph.Event{{
						Src: tgraph.NodeID(g % 4), Dst: tgraph.NodeID((g + 1) % 4),
						Time: float64(g*100 + i + 1), Feat: feat(),
					}}
					_, _, err := p.Submit(context.Background(), ev)
					switch {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, ErrClosed):
						rejected.Add(1)
						return
					default:
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		close(start)
		time.Sleep(time.Duration(round) * 200 * time.Microsecond)
		if err := p.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		st := p.Stats()
		if st.QueueDepth != 0 {
			t.Fatalf("round %d: shutdown left queue depth %d", round, st.QueueDepth)
		}
		if _, _, err := p.Submit(context.Background(), []tgraph.Event{{Src: 0, Dst: 1, Time: 1e6, Feat: feat()}}); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: submit after shutdown: %v", round, err)
		}
		if err := p.Shutdown(context.Background()); err != nil { // idempotent
			t.Fatal(err)
		}
		if accepted.Load() == 0 && round > 2 {
			t.Logf("round %d: shutdown won every race (ok)", round)
		}
	}
}

// TestShutdownRefusesBlockedSubmit pins the Shutdown rule: a Submit waiting
// for queue space when Shutdown runs returns ErrClosed and its batch is not
// applied — the model ends where a run that never submitted it ends — while
// every batch already queued is.
func TestShutdownRefusesBlockedSubmit(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []Option
	}{{"untenanted", nil}, {"tenants", []Option{WithTenants()}}} {
		t.Run(c.name, func(t *testing.T) {
			run := func(blocked bool) uint64 {
				hook, parked, gate := parkWorker()
				m := testModel(t, nil)
				p := New(m, append([]Option{WithQueueCap(1), WithBeforeApply(hook)}, c.opts...)...)
				ctx := context.Background()
				for i := 1; i <= 2; i++ {
					if _, _, err := p.Submit(ctx, tev(int32(i-1), int32(i), float64(i))); err != nil {
						t.Fatal(err)
					}
					if i == 1 {
						<-parked // the applier holds batch 1; batch 2 fills the queue
					}
				}
				errc := make(chan error, 1)
				if blocked {
					go func() {
						_, _, err := p.Submit(ctx, tev(2, 3, 3))
						errc <- err
					}()
					// A submit records its sync latency under the queue's
					// lock and holds it until it waits for space.
					for n := int64(0); n < 3; {
						time.Sleep(time.Millisecond)
						p.sched.mu.Lock()
						n = p.sched.syncLat.n
						p.sched.mu.Unlock()
					}
				}
				shut := make(chan error, 1)
				go func() { shut <- p.Shutdown(ctx) }()
				if blocked {
					select {
					case err := <-errc:
						if !errors.Is(err, ErrClosed) {
							t.Fatalf("blocked Submit across Shutdown: %v, want ErrClosed", err)
						}
					case <-time.After(5 * time.Second):
						t.Fatal("blocked Submit did not return when Shutdown ran")
					}
				}
				close(gate)
				if err := <-shut; err != nil {
					t.Fatal(err)
				}
				if st := p.Stats(); st.Processed != 2 || st.QueueDepth != 0 {
					t.Fatalf("after Shutdown: %+v, want the 2 queued batches applied", st)
				}
				return m.RuntimeDigest()
			}
			if got, want := run(true), run(false); got != want {
				t.Fatalf("runtime digest %016x with a refused blocked Submit, %016x without it", got, want)
			}
		})
	}
}

func TestPipelineOptionsAndWorkers(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, gdb.Constant(time.Millisecond))
	p := New(m, WithQueueCap(32))
	if p.NumNodes() != 8 || p.EdgeDim() != 8 {
		t.Fatalf("model metadata: %d nodes %d dims", p.NumNodes(), p.EdgeDim())
	}
	for i := 0; i < 12; i++ {
		ev := []tgraph.Event{{Src: tgraph.NodeID(i % 4), Dst: tgraph.NodeID((i + 1) % 4), Time: float64(i + 1), Feat: feat()}}
		if _, _, err := p.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Processed != 12 {
		t.Fatalf("shutdown must drain: %+v", st)
	}
}

func TestScoreOnlyLeavesStateUntouched(t *testing.T) {
	// ScoreOnly is the follower's read-only serving mode: it must return the
	// same scores Submit would, without applying anything — the runtime
	// digest may not move, and repeating the same batch must reproduce the
	// same scores bitwise (an applied batch would change them).
	ctx := context.Background()
	m := testModel(t, nil)
	p := New(m, WithQueueCap(4))
	defer p.Shutdown(context.Background())

	warm := []tgraph.Event{
		{Src: 0, Dst: 1, Time: 1, Feat: feat()},
		{Src: 1, Dst: 2, Time: 2, Feat: feat()},
	}
	if _, _, err := p.Submit(ctx, warm); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	probe := []tgraph.Event{{Src: 2, Dst: 3, Time: 3, Feat: feat()}}
	before := m.RuntimeDigest()
	s1, _, err := p.ScoreOnly(probe)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := p.ScoreOnly(probe)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RuntimeDigest(); got != before {
		t.Fatalf("ScoreOnly moved the runtime digest: %016x -> %016x", before, got)
	}
	if len(s1) != len(probe) || len(s2) != len(s1) {
		t.Fatalf("score lengths: %d, %d, want %d", len(s1), len(s2), len(probe))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("repeated ScoreOnly diverged at %d: %v vs %v", i, s1[i], s2[i])
		}
	}

	// And it matches what Submit scores for the same state.
	s3, _, err := p.Submit(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s3 {
		if s1[i] != s3[i] {
			t.Fatalf("ScoreOnly score %v != Submit score %v at %d", s1[i], s3[i], i)
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestQueueDepthIsCheapAndAgreesWithStats: QueueDepth is what the request
// path reads, so it must not allocate (Stats copies and sorts a window of
// latency samples), and it must report the depth Stats reports.
func TestQueueDepthIsCheapAndAgreesWithStats(t *testing.T) {
	ctx := context.Background()
	p := New(testModel(t, nil))
	defer p.Shutdown(context.Background())
	for i := 0; i < 500; i++ {
		ev := []tgraph.Event{{Src: 0, Dst: 1, Time: float64(i + 1), Feat: feat()}}
		if _, _, err := p.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := p.QueueDepth(), p.Stats().QueueDepth; got != want || got != 0 {
		t.Fatalf("drained pipeline: QueueDepth() = %d, Stats().QueueDepth = %d, want 0", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.QueueDepth() }); allocs != 0 {
		t.Fatalf("QueueDepth allocated %.1f times per call", allocs)
	}
}
