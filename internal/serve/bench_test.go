package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apan/internal/async"
	"apan/internal/tgraph"
)

// BenchmarkMicroBatch compares serving throughput at ≥ 8 concurrent
// one-event-per-request clients: each client submitting its event straight
// into the pipeline (the pre-v1 pattern) versus riding the server-side
// micro-batcher, which coalesces concurrent requests into one Score
// call (paper Table 5: throughput peaks at large batch). The ev/s metric is
// the one to compare across sub-benchmarks.
func BenchmarkMicroBatch(b *testing.B) {
	const clients = 8

	run := func(b *testing.B, score func(ctx context.Context, ev tgraph.Event) error) {
		ctx := context.Background()
		var next atomic.Int64
		start := time.Now()
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > int64(b.N) {
						return
					}
					ev := tgraph.Event{
						Src: tgraph.NodeID(int(i) % testNodes), Dst: tgraph.NodeID(int(i+1) % testNodes),
						Time: float64(i), Feat: feat(), Label: -1,
					}
					if err := score(ctx, ev); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ev/s")
	}

	b.Run("PerRequest", func(b *testing.B) {
		pipe := async.New(testModel(b), async.WithQueueCap(1024))
		defer pipe.Shutdown(context.Background())
		run(b, func(ctx context.Context, ev tgraph.Event) error {
			_, _, err := pipe.Submit(ctx, []tgraph.Event{ev})
			return err
		})
	})

	b.Run("Coalesced", func(b *testing.B) {
		pipe := async.New(testModel(b), async.WithQueueCap(1024))
		defer pipe.Shutdown(context.Background())
		batcher := NewBatcher(pipe)
		defer batcher.Close()
		run(b, func(ctx context.Context, ev tgraph.Event) error {
			_, _, _, err := batcher.Score(ctx, ev)
			return err
		})
	})
}
