// Benchmarks regenerating the paper's tables and figures at reduced scale.
// Each benchmark maps to one table or figure of the evaluation section (see
// DESIGN.md §3); cmd/apan-bench runs the same experiments at larger scale
// with more seeds. Absolute numbers differ from the paper (CPU vs GPU,
// synthetic vs proprietary data); the benchmarks preserve the *shape*:
// which model wins, by roughly what factor, and where the curves stay flat.
package apan

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apan/internal/bench"
)

func benchOpts() bench.Options {
	return bench.Options{
		Scale:     0.005,
		Seed:      1,
		Seeds:     1,
		Epochs:    2,
		BatchSize: 100,
		Fanout:    5,
		Slots:     5,
		Hidden:    48,
	}
}

// BenchmarkTable1Stats regenerates the dataset-statistics table.
func BenchmarkTable1Stats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Wikipedia regenerates the Wikipedia link-prediction column
// over all twelve models.
func BenchmarkTable2Wikipedia(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable2(benchOpts(), "wikipedia", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Reddit regenerates the Reddit link-prediction column over
// the dynamic models (the static family is covered by the Wikipedia run).
func BenchmarkTable2Reddit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable2(benchOpts(), "reddit", bench.Table2StreamModels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3NodeClassification regenerates the Wikipedia dynamic
// node-classification column.
func BenchmarkTable3NodeClassification(b *testing.B) {
	b.ReportAllocs()
	o := benchOpts()
	o.Scale = 0.02 // ban labels are sparse; needs a larger slice
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable3(o, "wikipedia", []string{"JODIE", "TGN", "APAN"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3EdgeClassification regenerates the Alipay fraud
// edge-classification column.
func BenchmarkTable3EdgeClassification(b *testing.B) {
	b.ReportAllocs()
	o := benchOpts()
	o.Scale = 0.02
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable3(o, "alipay", []string{"JODIE", "TGN", "APAN"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Inference regenerates the inference-latency vs AP scatter
// with a simulated graph-database round trip on the synchronous models'
// critical path.
func BenchmarkFigure6Inference(b *testing.B) {
	b.ReportAllocs()
	o := benchOpts()
	o.DBLatency = 100 * time.Microsecond
	for i := 0; i < b.N; i++ {
		fig, err := bench.RunFigure6(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		report := func(model string) {
			for _, p := range fig.Points {
				if p.Model == model {
					b.ReportMetric(p.InferMs, model+"-ms/batch")
				}
			}
		}
		report("APAN-2layers")
		report("TGN-2layers")
	}
}

// BenchmarkFigure7Training regenerates the training-time vs AP scatter.
func BenchmarkFigure7Training(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFigure7(benchOpts(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8BatchSize regenerates the batch-size robustness curves.
func BenchmarkFigure8BatchSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFigure8(benchOpts(), nil, []int{100, 200, 300}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9Grid regenerates the slots × neighbors robustness grid
// (2×2 here; apan-bench runs the full 4×4).
func BenchmarkFigure9Grid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFigure9(benchOpts(), []int{5, 10}, []int{5, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the design-choice ablation of DESIGN.md §5
// (positional encoding, mail reduction, mailbox update rule, decoder, hops).
func BenchmarkAblation(b *testing.B) {
	b.ReportAllocs()
	o := benchOpts()
	o.Epochs = 1
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblation(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriftAblation quantifies the generator's preference-drift knob:
// the dynamics that separate temporal from static models.
func BenchmarkDriftAblation(b *testing.B) {
	b.ReportAllocs()
	o := benchOpts()
	o.Epochs = 1
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunDriftAblation(o, []float64{0, 0.4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferBatch measures the synchronous link alone: one batch of 200
// interactions scored with no graph access — the millisecond path the paper
// deploys online, on a warm pooled workspace (zero steady-state allocations;
// allocs/op should read 0).
func BenchmarkInferBatch(b *testing.B) {
	ds := Wikipedia(DatasetConfig{Scale: 0.01, Seed: 1})
	b.ReportAllocs()
	m, err := New(Config{NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim, BatchSize: 200})
	if err != nil {
		b.Fatal(err)
	}
	m.EvalStream(ds.Events[:1000], nil) // warm state and mailboxes
	batch := ds.Events[1000:1200]
	var p Pending
	m.Score(batch, &p) // warm the workspace pool and the Pending
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(batch, &p)
	}
	b.ReportMetric(float64(b.N)*float64(len(batch))/b.Elapsed().Seconds(), "ev/s")
}

// BenchmarkInferBatchParallel measures the synchronous link under the
// concurrent serving workload the sharded store layer exists for: G
// goroutines score batches while a background writer continuously runs the
// asynchronous link (state write-backs, graph inserts and 2-hop mail
// propagation against a graph database with a simulated 50µs round trip).
//
// locking=global reproduces the coarse discipline this repo used before the
// sharded stores: one RWMutex over all node state, read-held for a whole
// synchronous-link pass, write-held for a whole asynchronous-link pass —
// so every scorer stalls whenever the writer is in, including its graph-DB
// waits. locking=sharded is the current code: writers pin only the touched
// shard, graph waits happen under the graph mutex alone, and scoring never
// stops. Compare the ev/s metric; sharded should win clearly at ≥4
// goroutines and the gap widens with DB latency.
func BenchmarkInferBatchParallel(b *testing.B) {
	ds := Wikipedia(DatasetConfig{Scale: 0.01, Seed: 1})
	const batchLen = 50
	for _, mode := range []string{"global", "sharded"} {
		for _, goroutines := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("locking=%s/goroutines=%d", mode, goroutines), func(b *testing.B) {
				db := NewGraphDB(NewGraph(ds.NumNodes))
				db.Latency = ConstantLatency(50 * time.Microsecond)
				db.Sleep = true
				m, err := NewWithDB(Config{
					NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim,
					BatchSize: 200, Seed: 1,
				}, db)
				if err != nil {
					b.Fatal(err)
				}
				db.Sleep = false
				m.EvalStream(ds.Events[:1000], nil) // warm state and mailboxes
				db.Sleep = true
				batch := ds.Events[1000 : 1000+batchLen]

				// The pre-sharding global store lock, emulated around the
				// public API exactly as the old Model held it internally.
				var global sync.RWMutex
				score := func(p *Pending) { m.Score(batch, p) }
				apply := m.ApplyPending
				if mode == "global" {
					score = func(p *Pending) {
						global.RLock()
						m.Score(batch, p)
						global.RUnlock()
					}
					apply = func(p *Pending) {
						global.Lock()
						m.ApplyPending(p)
						global.Unlock()
					}
				}

				// Background asynchronous-link writer (the applier of
				// async.Pipeline).
				stop := make(chan struct{})
				var writerWG sync.WaitGroup
				writerWG.Add(1)
				go func() {
					defer writerWG.Done()
					var scored Pending
					m.Score(batch, &scored)
					for {
						select {
						case <-stop:
							return
						default:
						}
						apply(&scored)
					}
				}()

				b.ReportAllocs()
				b.ResetTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var p Pending
						for next.Add(1) <= int64(b.N) {
							score(&p)
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				close(stop)
				writerWG.Wait()
				b.ReportMetric(float64(b.N)*batchLen/b.Elapsed().Seconds(), "ev/s")
			})
		}
	}
}

// BenchmarkPropagateBatch measures the asynchronous link alone: graph
// insert plus 2-hop mail propagation for a 200-event batch.
func BenchmarkPropagateBatch(b *testing.B) {
	ds := Wikipedia(DatasetConfig{Scale: 0.01, Seed: 1})
	m, err := New(Config{NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim, BatchSize: 200})
	if err != nil {
		b.Fatal(err)
	}
	m.EvalStream(ds.Events[:1000], nil)
	batch := ds.Events[1000:1200]
	var p Pending
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		snap := m.SnapshotRuntime()
		m.Score(batch, &p)
		b.StartTimer()
		m.ApplyPending(&p)
		b.StopTimer()
		m.RestoreRuntime(snap)
		b.StartTimer()
	}
}

// BenchmarkPropagateMailScratch isolates the ProcessBatch allocation fix:
// the propagator now keeps its inbox map, accumulator freelist, one
// per-event mail buffer and its per-hop frontier buffers (hops=2 and 3
// gather one and two levels) across batches (scratch=reused), where it used to
// allocate a mail slice per event and a map + accumulator set per batch —
// reproduced by swapping in a brand-new Propagator every iteration
// (scratch=fresh). Mailbox deliveries are identical either way; compare
// B/op and allocs/op for the before/after delta.
func BenchmarkPropagateMailScratch(b *testing.B) {
	ds := Wikipedia(DatasetConfig{Scale: 0.01, Seed: 1})
	for _, hops := range []int{1, 2, 3} {
		for _, mode := range []string{"reused", "fresh"} {
			b.Run(fmt.Sprintf("hops=%d/scratch=%s", hops, mode), func(b *testing.B) {
				m, err := New(Config{NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim, BatchSize: 200, Hops: hops})
				if err != nil {
					b.Fatal(err)
				}
				m.EvalStream(ds.Events[:1000], nil)
				batch := ds.Events[1000:1200]
				prop := m.Propagator()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "fresh" {
						b.StopTimer()
						prop = NewPropagator(m.Cfg, m.DB(), m.Mailbox())
						b.StartTimer()
					}
					prop.ProcessBatch(batch, m.State())
				}
			})
		}
	}
}
