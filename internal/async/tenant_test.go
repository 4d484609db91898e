package async

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"apan/internal/tgraph"
)

func tev(src, dst int32, tm float64) []tgraph.Event {
	return []tgraph.Event{{Src: src, Dst: dst, Time: tm, Feat: feat()}}
}

// parkWorker returns a beforeApply hook whose worker blocks on the gate
// after announcing itself — the scenario harness's deterministic saturation
// seam, reused here to hold queues at known depths.
func parkWorker() (hook func([]tgraph.Event), parked <-chan struct{}, gate chan struct{}) {
	g := make(chan struct{})
	pk := make(chan struct{}, 1024)
	return func([]tgraph.Event) {
		pk <- struct{}{}
		<-g
	}, pk, g
}

// TestTenantDefaultBackCompat: with tenancy enabled, tenant-unaware
// Submit/TrySubmit call sites keep working and land on the default tenant's
// ledger; the model-state outcome matches the untenanted pipeline.
func TestTenantDefaultBackCompat(t *testing.T) {
	ctx := context.Background()
	p := New(testModel(t, nil), WithQueueCap(4), WithTenants())
	if _, _, err := p.Submit(ctx, tev(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.TrySubmit(tev(1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts := p.TenantStats()
	if ts == nil {
		t.Fatal("TenantStats nil with tenancy enabled")
	}
	d := ts[DefaultTenant]
	if d.Submitted != 2 || d.Applied != 2 || d.Dropped != 0 {
		t.Fatalf("default tenant ledger %+v, want 2 submitted, 2 applied", d)
	}
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Without tenancy there is no ledger.
	p2 := New(testModel(t, nil))
	defer p2.Close()
	if p2.TenantStats() != nil {
		t.Fatal("TenantStats non-nil without tenancy")
	}
}

// TestTenantLedgerSettledAtDrain: once Drain returns, every applied batch is
// in its tenant's ledger. The worker used to count a batch processed (and
// wake Drain) before it marked the tenant apply, so a reader right after
// Drain could find Applied one short.
func TestTenantLedgerSettledAtDrain(t *testing.T) {
	ctx := context.Background()
	p := New(testModel(t, nil), WithQueueCap(4), WithTenants())
	defer p.Shutdown(context.Background())
	for i := int64(1); i <= 300; i++ {
		if _, _, err := p.Submit(ctx, tev(0, 1, float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := p.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		if d := p.TenantStats()[DefaultTenant]; d.Applied != i {
			t.Fatalf("after Drain %d: ledger %+v, want %d applied", i, d, i)
		}
	}
}

// TestTenantRateLimitEventTime: the rate gate is driven by the events'
// stream time — the identical trace is admitted identically on every run,
// and refusals are accounted as rate-limited drops.
func TestTenantRateLimitEventTime(t *testing.T) {
	run := func() (TenantStats, []error) {
		p := New(testModel(t, nil), WithQueueCap(8),
			WithTenants(TenantConfig{ID: "metered", Rate: 1, Burst: 2}))
		defer p.Shutdown(context.Background())
		var errs []error
		// 5 events in 2 stream-seconds against a 1/s rate, burst 2: the
		// bucket admits the first two on the initial burst, then refills
		// 0.5 tokens per event — every later event is refused until enough
		// stream time passes.
		for i := 0; i < 5; i++ {
			_, _, err := p.TrySubmitTenant("metered", tev(0, 1, float64(i)/2))
			errs = append(errs, err)
		}
		// Far-future event: the bucket has fully refilled.
		_, _, err := p.TrySubmitTenant("metered", tev(0, 1, 100))
		errs = append(errs, err)
		if err := p.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return p.TenantStats()["metered"], errs
	}
	st, errs := run()
	limited := 0
	for _, err := range errs {
		if errors.Is(err, ErrRateLimited) {
			limited++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if limited == 0 || limited >= len(errs) {
		t.Fatalf("rate gate refused %d of %d (want some, not all): %v", limited, len(errs), errs)
	}
	if st.RateLimited != int64(limited) || st.Dropped != int64(limited) {
		t.Fatalf("ledger %+v inconsistent with %d refusals", st, limited)
	}
	if st.Submitted != st.Applied+st.Dropped {
		t.Fatalf("conservation violated: %+v", st)
	}
	// Determinism: a second identical run refuses the identical submissions.
	_, errs2 := run()
	for i := range errs {
		if (errs[i] == nil) != (errs2[i] == nil) {
			t.Fatalf("admission not reproducible at submission %d: %v vs %v", i, errs[i], errs2[i])
		}
	}

	// A batch without a finite time is charged but moves no clock, so it
	// cannot stop the refill: the first finite time starts the clock.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		p := New(testModel(t, nil), WithTenants(TenantConfig{ID: "metered", Rate: 1, Burst: 1}))
		var got []error
		for _, tm := range []float64{bad, bad, 100, 200, 300, 400, 500} {
			_, _, err := p.TrySubmitTenant("metered", tev(0, 1, tm))
			got = append(got, err)
		}
		p.Shutdown(context.Background())
		want := []error{nil, ErrRateLimited, nil, nil, nil, nil, nil}
		for i := range want {
			if !errors.Is(got[i], want[i]) {
				t.Fatalf("first batch at t=%v: admissions %v, want %v", bad, got, want)
			}
		}
	}
}

// TestTenantQueueIsolation: a backlogged aggressor fills only its own
// bounded queue; the victim's queue admits unhindered.
func TestTenantQueueIsolation(t *testing.T) {
	hook, parked, gate := parkWorker()
	p := New(testModel(t, nil), WithQueueCap(2), WithBeforeApply(hook),
		WithTenants(
			TenantConfig{ID: "aggressor", QueueCap: 2},
			TenantConfig{ID: "victim", QueueCap: 2},
		))
	defer func() { close(gate); p.Shutdown(context.Background()) }()

	// Park the worker on one batch, then fill the aggressor's queue.
	if _, _, err := p.TrySubmitTenant("aggressor", tev(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	<-parked
	for i := 0; i < 2; i++ {
		if _, _, err := p.TrySubmitTenant("aggressor", tev(0, 1, float64(2+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Aggressor queue full: its overflow is shed...
	if _, _, err := p.TrySubmitTenant("aggressor", tev(0, 1, 9)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("aggressor overflow: got %v, want ErrQueueFull", err)
	}
	// ...while the victim still gets in.
	for i := 0; i < 2; i++ {
		if _, _, err := p.TrySubmitTenant("victim", tev(2, 3, float64(i))); err != nil {
			t.Fatalf("victim blocked by aggressor backlog: %v", err)
		}
	}
	st := p.TenantStats()
	if st["aggressor"].Dropped != 1 || st["victim"].Dropped != 0 {
		t.Fatalf("drop isolation violated: %+v", st)
	}
}

// TestTenantWeightedFairDequeue: with both tenants backlogged, dequeue
// order follows the weights — 3 aggressor-weighted batches per victim batch
// would invert the intent, so here the victim holds weight 3.
func TestTenantWeightedFairDequeue(t *testing.T) {
	hook, parked, gate := parkWorker()
	var mu sync.Mutex
	var order []string
	p := New(testModel(t, nil), WithQueueCap(16),
		WithBeforeApply(func(events []tgraph.Event) {
			mu.Lock()
			// Tenant identity is recoverable from the src node id parity.
			if events[0].Src == 0 {
				order = append(order, "heavy")
			} else {
				order = append(order, "light")
			}
			mu.Unlock()
			hook(events)
		}),
		WithTenants(
			TenantConfig{ID: "heavy", Weight: 3, QueueCap: 16},
			TenantConfig{ID: "light", Weight: 1, QueueCap: 16},
		))
	defer p.Shutdown(context.Background())

	// Park the worker, backlog both tenants, then release and drain.
	if _, _, err := p.TrySubmitTenant("light", tev(2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	<-parked
	for i := 0; i < 6; i++ {
		if _, _, err := p.TrySubmitTenant("heavy", tev(0, 1, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := p.TrySubmitTenant("light", tev(2, 3, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	for range parked {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n >= 9 {
			break
		}
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]string(nil), order[1:]...) // drop the parked warm-up batch
	mu.Unlock()
	// One full weighted round over the backlog: 3 heavy, then 1 light.
	want := []string{"heavy", "heavy", "heavy", "light"}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("weighted round order %v, want prefix %v", got, want)
		}
	}
	st := p.TenantStats()
	if st["heavy"].Applied != 6 || st["light"].Applied != 3 {
		t.Fatalf("applied counts %+v", st)
	}
}

// TestTenantPriorityLanes: a lane-0 tenant's backlog is fully drained
// before any lane-1 batch is applied.
func TestTenantPriorityLanes(t *testing.T) {
	hook, parked, gate := parkWorker()
	var mu sync.Mutex
	var order []int32
	p := New(testModel(t, nil), WithQueueCap(16),
		WithBeforeApply(func(events []tgraph.Event) {
			mu.Lock()
			order = append(order, events[0].Src)
			mu.Unlock()
			hook(events)
		}),
		WithTenants(
			TenantConfig{ID: "batch", Lane: 1, QueueCap: 8},
			TenantConfig{ID: "interactive", Lane: 0, QueueCap: 8},
		))
	defer p.Shutdown(context.Background())

	if _, _, err := p.TrySubmitTenant("batch", tev(4, 5, 0)); err != nil {
		t.Fatal(err)
	}
	<-parked
	for i := 0; i < 3; i++ {
		if _, _, err := p.TrySubmitTenant("batch", tev(4, 5, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := p.TrySubmitTenant("interactive", tev(0, 1, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]int32(nil), order[1:]...)
	mu.Unlock()
	want := []int32{0, 0, 0, 4, 4, 4} // every interactive batch before any batch-lane one
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane order %v, want %v", got, want)
		}
	}
}

// TestTenantConservationConcurrent: under concurrent multi-tenant load with
// a slow worker, every tenant's ledger balances (submitted = applied +
// dropped) after a drain — the per-tenant drop-accounting invariant, here
// exercised with -race in CI.
func TestTenantConservationConcurrent(t *testing.T) {
	p := New(testModel(t, nil), WithQueueCap(2),
		WithTenants(
			TenantConfig{ID: "a", Weight: 2, QueueCap: 2},
			TenantConfig{ID: "b", Rate: 50, QueueCap: 2},
			TenantConfig{ID: "c", Lane: 1, QueueCap: 2},
		))
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := string(rune('a' + g))
			for i := 0; i < 40; i++ {
				_, _, err := p.TrySubmitTenant(tenant, tev(int32(g), int32(g+1), float64(i)))
				if err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrRateLimited) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for id, st := range p.TenantStats() {
		if st.Submitted != st.Applied+st.Dropped {
			t.Fatalf("tenant %s: submitted %d != applied %d + dropped %d",
				id, st.Submitted, st.Applied, st.Dropped)
		}
		if st.QueueDepth != 0 {
			t.Fatalf("tenant %s: queue depth %d after drain", id, st.QueueDepth)
		}
	}
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTenantSubmitBlocksAndCancels: the blocking SubmitTenant honors
// context cancellation while waiting on a full tenant queue, and the
// abandoned batch is accounted as dropped.
func TestTenantSubmitBlocksAndCancels(t *testing.T) {
	hook, parked, gate := parkWorker()
	p := New(testModel(t, nil), WithBeforeApply(hook),
		WithTenants(TenantConfig{ID: "x", QueueCap: 1}))
	defer func() { close(gate); p.Shutdown(context.Background()) }()

	if _, _, err := p.SubmitTenant(context.Background(), "x", tev(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	<-parked
	if _, _, err := p.SubmitTenant(context.Background(), "x", tev(0, 1, 2)); err != nil {
		t.Fatal(err) // fills the queue (worker holds the first batch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err := p.SubmitTenant(ctx, "x", tev(0, 1, 3))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit: got %v, want deadline exceeded", err)
	}
	st := p.TenantStats()["x"]
	if st.Submitted != 3 || st.Dropped != 1 {
		t.Fatalf("ledger after cancel %+v, want 3 submitted 1 dropped", st)
	}
}

// TestTenantShutdownDrainsBacklog: Shutdown applies every admitted batch
// before the workers exit, then rejects new submissions with ErrClosed.
func TestTenantShutdownDrainsBacklog(t *testing.T) {
	p := New(testModel(t, nil), WithQueueCap(8),
		WithTenants(TenantConfig{ID: "x", QueueCap: 8}))
	for i := 0; i < 5; i++ {
		if _, _, err := p.TrySubmitTenant("x", tev(0, 1, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := p.TenantStats()["x"]
	if st.Applied != 5 || st.QueueDepth != 0 {
		t.Fatalf("shutdown abandoned backlog: %+v", st)
	}
	if _, _, err := p.TrySubmitTenant("x", tev(0, 1, 9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown submit: got %v, want ErrClosed", err)
	}
}

// TestTenantAutoAdmission: unknown tenant ids are admitted on first use
// with the defaults template and get their own ledger.
func TestTenantAutoAdmission(t *testing.T) {
	p := New(testModel(t, nil), WithQueueCap(4),
		WithTenantDefaults(TenantConfig{Rate: 1000, Weight: 2}))
	defer p.Shutdown(context.Background())
	for g := 0; g < 3; g++ {
		id := fmt.Sprintf("walk-in-%d", g)
		if _, _, err := p.TrySubmitTenant(id, tev(int32(g), int32(g+1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := p.TenantStats()
	for g := 0; g < 3; g++ {
		id := fmt.Sprintf("walk-in-%d", g)
		got, ok := st[id]
		if !ok || got.Submitted != 1 || got.Applied != 1 || got.Weight != 2 {
			t.Fatalf("auto-admitted tenant %s ledger %+v", id, got)
		}
	}
}
