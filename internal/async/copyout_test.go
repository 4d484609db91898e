package async

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"apan/internal/core"
	"apan/internal/tgraph"
)

// TestClosedSubmitLeavesModelUntouched: a submission refused because the
// pipeline has shut down must not touch the model. Re-admitting an evicted
// node re-seeds its state, moves the LRU and can evict others, so the closed
// check has to come before it.
func TestClosedSubmitLeavesModelUntouched(t *testing.T) {
	ctx := context.Background()
	cfg := core.Config{
		NumNodes: 8, EdgeDim: 8, Slots: 4, Neighbors: 4,
		Hops: 2, Heads: 2, Hidden: 16, BatchSize: 4, Seed: 1,
		EvictMaxNodes: 2,
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := New(m)
	// Touch 0–1, then 2–3, then 4–5: under a budget of two, node 0 is cold.
	for i := 0; i < 3; i++ {
		ev := []tgraph.Event{{Src: tgraph.NodeID(2 * i), Dst: tgraph.NodeID(2*i + 1), Time: float64(i + 1), Feat: feat()}}
		if _, _, err := p.Submit(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st, _ := m.EvictionStats()
	if st.ColdSet == 0 {
		t.Fatalf("nothing evicted: %+v", st)
	}
	digest := m.RuntimeDigest()

	cold := []tgraph.Event{{Src: 0, Dst: 1, Time: 9, Feat: feat()}}
	for name, submit := range map[string]func() error{
		"Submit":    func() error { _, _, err := p.Submit(ctx, cold); return err },
		"TrySubmit": func() error { _, _, err := p.TrySubmit(cold); return err },
	} {
		if err := submit(); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s after Shutdown: %v, want ErrClosed", name, err)
		}
		if got, _ := m.EvictionStats(); got != st {
			t.Fatalf("%s after Shutdown moved the evictor: %+v -> %+v", name, st, got)
		}
		if got := m.RuntimeDigest(); got != digest {
			t.Fatalf("%s after Shutdown moved the runtime digest: %016x -> %016x", name, digest, got)
		}
	}
}

// TestMalformedSubmitLeavesModelUntouched: every submission path refuses a
// batch that names a node outside the node space or carries a feature
// vector of the wrong width, with an error and before anything moves —
// scoring it would panic in the gather, and applying it would log a record
// replay refuses. The runtime digest, the graph watermark, the queue and
// every counter stay put.
func TestMalformedSubmitLeavesModelUntouched(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, nil)
	p := New(m, WithTenants())
	defer p.Shutdown(ctx)
	for _, b := range parityBatches(3) {
		if _, _, err := p.Submit(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	digest, watermark, stats, tenants := m.RuntimeDigest(), m.GraphEvents(), p.Stats(), p.TenantStats()

	n := tgraph.NodeID(m.NumNodes())
	for name, batch := range map[string][]tgraph.Event{
		"short feat":   {{Src: 0, Dst: 1, Time: 9, Feat: make([]float32, 3)}},
		"src -1":       {{Src: 0, Dst: 1, Time: 9, Feat: feat()}, {Src: -1, Dst: 1, Time: 9, Feat: feat()}},
		"dst NumNodes": {{Src: 0, Dst: n, Time: 9, Feat: feat()}},
	} {
		for variant, submit := range map[string]func() error{
			"Submit":          func() error { _, _, err := p.Submit(ctx, batch); return err },
			"TrySubmit":       func() error { _, _, err := p.TrySubmit(batch); return err },
			"SubmitTenant":    func() error { _, _, err := p.SubmitTenant(ctx, DefaultTenant, batch); return err },
			"TrySubmitTenant": func() error { _, _, err := p.TrySubmitTenant(DefaultTenant, batch); return err },
			"ScoreOnly":       func() error { _, _, err := p.ScoreOnly(batch); return err },
		} {
			if err := submit(); err == nil {
				t.Errorf("%s accepted a batch with %s", variant, name)
			}
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := m.RuntimeDigest(); got != digest {
		t.Errorf("refused batches moved the runtime digest: %016x -> %016x", digest, got)
	}
	if got := m.GraphEvents(); got != watermark {
		t.Errorf("refused batches moved the graph watermark: %d -> %d", watermark, got)
	}
	if got := p.Stats(); got != stats {
		t.Errorf("refused batches moved the pipeline counters: %+v -> %+v", stats, got)
	}
	if got := p.TenantStats(); !reflect.DeepEqual(got, tenants) {
		t.Errorf("refused batches moved the tenant counters: %+v -> %+v", tenants, got)
	}
}

// TestNonFiniteTimeSubmitLeavesModelUntouched: every submission path
// refuses a batch holding an event stamped NaN, +Inf or −Inf — valid ids and
// features otherwise, the bad event last — with an error and before anything
// moves, as it refuses a malformed batch: a NaN time would sit in a node's
// incidence list out of order, and most-recent sampling would hand later
// queries an incidence from their future. The runtime digest, the graph
// watermark, the queue and every counter stay put.
func TestNonFiniteTimeSubmitLeavesModelUntouched(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, nil)
	p := New(m, WithTenants())
	defer p.Shutdown(ctx)
	for _, b := range parityBatches(3) {
		if _, _, err := p.Submit(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	digest, watermark, stats, tenants := m.RuntimeDigest(), m.GraphEvents(), p.Stats(), p.TenantStats()

	for name, time := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		batch := []tgraph.Event{{Src: 0, Dst: 1, Time: 9, Feat: feat()}, {Src: 2, Dst: 3, Time: time, Feat: feat()}}
		for variant, submit := range map[string]func() error{
			"Submit":          func() error { _, _, err := p.Submit(ctx, batch); return err },
			"TrySubmit":       func() error { _, _, err := p.TrySubmit(batch); return err },
			"SubmitTenant":    func() error { _, _, err := p.SubmitTenant(ctx, DefaultTenant, batch); return err },
			"TrySubmitTenant": func() error { _, _, err := p.TrySubmitTenant(DefaultTenant, batch); return err },
			"ScoreOnly":       func() error { _, _, err := p.ScoreOnly(batch); return err },
		} {
			if err := submit(); err == nil {
				t.Errorf("%s accepted a batch with a %s time", variant, name)
			}
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := m.RuntimeDigest(); got != digest {
		t.Errorf("refused batches moved the runtime digest: %016x -> %016x", digest, got)
	}
	if got := m.GraphEvents(); got != watermark {
		t.Errorf("refused batches moved the graph watermark: %d -> %d", watermark, got)
	}
	if got := p.Stats(); got != stats {
		t.Errorf("refused batches moved the pipeline counters: %+v -> %+v", stats, got)
	}
	if got := p.TenantStats(); !reflect.DeepEqual(got, tenants) {
		t.Errorf("refused batches moved the tenant counters: %+v -> %+v", tenants, got)
	}
}

// TestQueuedBatchesPinNoWorkspace: a batch waiting for the applier holds its
// endpoints' embedding rows and its row indices, nothing more. With the
// applier parked, 32 queued batches may grow the heap by at most twice that
// per batch plus a fixed slack; a queued workspace would hold the batch's
// mail gather alone, Slots times the rows, and blow the bound.
func TestQueuedBatchesPinNoWorkspace(t *testing.T) {
	ctx := context.Background()
	const (
		queued = 32
		half   = 128 // events per batch; endpoints are 2·half distinct nodes
		dim    = 32
		slots  = 8
	)
	cfg := core.Config{
		NumNodes: 2 * half, EdgeDim: dim, Slots: slots, Neighbors: 4,
		Hops: 2, Heads: 2, Hidden: 16, BatchSize: half, Seed: 1,
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]tgraph.Event, queued+1)
	for b := range batches {
		evs := make([]tgraph.Event, half)
		for i := range evs {
			evs[i] = tgraph.Event{Src: tgraph.NodeID(i), Dst: tgraph.NodeID(half + i), Time: float64(b + 1), Feat: make([]float32, dim)}
		}
		batches[b] = evs
	}
	var park atomic.Bool
	release := make(chan struct{})
	p := New(m, WithQueueCap(2*queued), WithBeforeApply(func([]tgraph.Event) {
		if park.Load() {
			<-release
		}
	}))
	defer p.Shutdown(context.Background())
	defer close(release)

	// Warm one batch all the way through, so the workspace, the explain
	// record and one queued record already exist.
	if _, _, err := p.Submit(ctx, batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	park.Store(true)
	before := heapAlloc()
	for _, b := range batches[1:] {
		if _, _, err := p.Submit(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	growth := heapAlloc() - before
	if d := p.QueueDepth(); d != queued {
		t.Fatalf("queue depth %d, want %d", d, queued)
	}
	perBatch := int64(2*half*dim*4 + 2*half*4) // rows + srcRow/dstRow
	bound := queued*2*perBatch + 256<<10
	t.Logf("heap grew %d B for %d queued batches (bound %d, rows+indices %d B per batch)", growth, queued, bound, perBatch)
	if growth > bound {
		t.Fatalf("%d queued batches grew the heap by %d B, over the %d B bound: a queued batch is holding more than its rows", queued, growth, bound)
	}
}

// heapAlloc reports the live heap after a full collection.
func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// observeFunc adapts a function to the Trainer tap.
type observeFunc func([]tgraph.Event)

func (f observeFunc) Observe(events []tgraph.Event) { f(events) }

// TestSubmitApplyCycleAllocs: once warm, a Submit and the apply behind it
// allocate only the scores handed to the caller — the workspace, the queued
// record and the queue itself are all recycled — with or without tenancy,
// and whether or not the caller's context can be cancelled.
func TestSubmitApplyCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, opts := range []struct {
		name string
		opts []Option
	}{{"untenanted", nil}, {"tenants", []Option{WithTenants()}}} {
		for _, c := range []struct {
			name string
			ctx  context.Context
		}{{"background", context.Background()}, {"cancellable", cancellable}} {
			t.Run(opts.name+"/"+c.name, func(t *testing.T) {
				applied := make(chan struct{}, 1)
				tap := WithOnlineTrainer(observeFunc(func([]tgraph.Event) { applied <- struct{}{} }))
				p := New(testModel(t, nil), append([]Option{tap}, opts.opts...)...)
				defer p.Shutdown(context.Background())
				batch := parityBatches(1)[0]
				cycle := func() {
					if _, _, err := p.Submit(c.ctx, batch); err != nil {
						t.Fatal(err)
					}
					<-applied
				}
				for i := 0; i < 20; i++ {
					cycle()
				}
				if allocs := testing.AllocsPerRun(200, cycle); allocs > 1 {
					t.Fatalf("a warm Submit→apply cycle allocated %.2f times, want 1 (the caller's scores)", allocs)
				}
			})
		}
	}
}
