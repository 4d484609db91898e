package async

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"apan/internal/eval"
	"apan/internal/tgraph"
)

// TestStatsEqualFullHistoryBelowWindow: while fewer than 1,024 samples have
// been recorded the ring holds them all, so SyncMean, SyncP99 and AsyncMean
// equal what the full-history eval.LatencyHist reports for the same samples
// — through real Submits (whose returned latency is the recorded sample),
// through SubmitTenant for TenantStats, and fed directly for AsyncMean.
func TestStatsEqualFullHistoryBelowWindow(t *testing.T) {
	ctx := context.Background()
	var syncRef, tenantRef eval.LatencyHist
	p := New(testModel(t, nil))
	defer p.Shutdown(context.Background())
	tp := New(testModel(t, nil), WithTenantDefaults(TenantConfig{Weight: 1}))
	defer tp.Shutdown(context.Background())
	for i := 0; i < 300; i++ {
		ev := []tgraph.Event{{Src: 0, Dst: 1, Time: float64(i + 1), Feat: feat()}}
		_, lat, err := p.Submit(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		syncRef.Add(lat)
		if _, lat, err = tp.SubmitTenant(ctx, "acme", ev); err != nil {
			t.Fatal(err)
		}
		tenantRef.Add(lat)
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.SyncMean != syncRef.Mean() || st.SyncP99 != syncRef.Quantile(0.99) {
		t.Fatalf("Stats sync mean/p99 %v/%v, full history %v/%v", st.SyncMean, st.SyncP99, syncRef.Mean(), syncRef.Quantile(0.99))
	}
	ts := tp.TenantStats()["acme"]
	if ts.SyncMean != tenantRef.Mean() || ts.SyncP99 != tenantRef.Quantile(0.99) {
		t.Fatalf("TenantStats sync mean/p99 %v/%v, full history %v/%v", ts.SyncMean, ts.SyncP99, tenantRef.Mean(), tenantRef.Quantile(0.99))
	}

	for _, n := range []int{0, 1, 7, 100, tailWindow - 1, tailWindow} {
		var r, a latencyRing
		var ref, aref eval.LatencyHist
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Int63n(int64(time.Second)))
			r.add(d)
			ref.Add(d)
			d = time.Duration(rng.Int63n(int64(time.Second)))
			a.add(d)
			aref.Add(d)
		}
		if got := p99(r.window(nil)); r.mean() != ref.Mean() || got != ref.Quantile(0.99) || a.mean() != aref.Mean() {
			t.Fatalf("%d samples: mean/p99/async mean %v/%v/%v, full history %v/%v/%v",
				n, r.mean(), got, a.mean(), ref.Mean(), ref.Quantile(0.99), aref.Mean())
		}
	}
}

// TestStatsFlatAfterManySamples: the latency record costs constant memory —
// 100k samples allocate nothing — and Stats costs the same after 100k
// samples as after 2k: the same allocations per call, and time within a
// small factor (the old full-history sort was ≈ 100× slower at 100k).
func TestStatsFlatAfterManySamples(t *testing.T) {
	p := New(testModel(t, nil))
	defer p.Shutdown(context.Background())
	rng := rand.New(rand.NewSource(1))
	record := func(n int) {
		for i := 0; i < n; i++ {
			s := p.sched
			s.mu.Lock()
			s.syncLat.add(time.Duration(rng.Int63n(int64(time.Millisecond))))
			s.asyncLat.add(time.Duration(rng.Int63n(int64(time.Millisecond))))
			s.mu.Unlock()
		}
	}
	// fastest is the best of many Stats calls: the least noisy estimate of
	// its cost on a shared machine.
	fastest := func() time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 30; i++ {
			start := time.Now()
			p.Stats()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	record(2 * tailWindow)
	smallAllocs := testing.AllocsPerRun(20, func() { p.Stats() })
	small := fastest()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	record(100_000)
	runtime.ReadMemStats(&after)
	if grew := after.Mallocs - before.Mallocs; grew > 100 {
		t.Fatalf("recording 100k samples allocated %d times; the record must be fixed-size", grew)
	}
	largeAllocs := testing.AllocsPerRun(20, func() { p.Stats() })
	large := fastest()
	t.Logf("Stats: %v at %d samples, %v at %d", small, 2*tailWindow, large, 2*tailWindow+100_000)
	if largeAllocs != smallAllocs {
		t.Fatalf("Stats allocates %.1f times per call after 100k samples, %.1f after 2k", largeAllocs, smallAllocs)
	}
	if large > 10*small+time.Millisecond {
		t.Fatalf("Stats takes %v after 100k samples, %v after 2k: its cost grows with history", large, small)
	}
}

// TestStatsConcurrentWithSubmit: Stats and TenantStats read the latency
// rings while submitters and the applier write them (run under -race).
func TestStatsConcurrentWithSubmit(t *testing.T) {
	ctx := context.Background()
	p := New(testModel(t, nil), WithTenantDefaults(TenantConfig{Weight: 1}))
	defer p.Shutdown(context.Background())
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ev := []tgraph.Event{{Src: int32(g), Dst: 4, Time: float64(i + 1), Feat: feat()}}
				if _, _, err := p.SubmitTenant(ctx, "t", ev); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			if err := p.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if st := p.TenantStats()["t"]; st.Applied != 300 || st.SyncP99 <= 0 {
				t.Fatalf("tenant stats after 300 submits: %+v", st)
			}
			return
		default:
			p.Stats()
			p.TenantStats()
		}
	}
}
