package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/serve"
	"apan/internal/tgraph"
	"apan/internal/train"
	"apan/internal/wal"
)

// PerfScenario is one serving micro-benchmark's measurement, the unit of
// the repo's performance trajectory (BENCH_apan.json).
type PerfScenario struct {
	Name        string  `json:"name"`
	Events      int     `json:"events_per_op"`
	EvPerSec    float64 `json:"ev_per_s"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// PerfReport is the BENCH_apan.json payload: the serving hot-path numbers
// for this commit, comparable across the repo's history.
type PerfReport struct {
	GeneratedUnix int64          `json:"generated_unix"`
	GoVersion     string         `json:"go"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	Scale         float64        `json:"dataset_scale"`
	Scenarios     []PerfScenario `json:"scenarios"`
}

// perfModel builds a warmed model over the benchmark dataset.
func perfModel(o Options, ds *dataset.Dataset, hops int) (*core.Model, []tgraph.Event, error) {
	cfg := core.Config{
		NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim,
		Slots: o.Slots, Neighbors: o.Fanout,
		BatchSize: o.BatchSize, Seed: o.Seed,
	}
	if hops > 0 {
		cfg.Hops = hops
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	warm := 1000
	if warm+o.BatchSize > len(ds.Events) {
		return nil, nil, fmt.Errorf("bench: perf needs ≥%d events, dataset has %d (raise -scale)", warm+o.BatchSize, len(ds.Events))
	}
	m.EvalStream(ds.Events[:warm], nil)
	return m, ds.Events[warm : warm+o.BatchSize], nil
}

// RunPerf measures the serving hot paths with testing.Benchmark and renders
// a table. The report is the machine-readable trajectory record;
// WritePerfJSON persists it.
func RunPerf(o Options) (*PerfReport, error) {
	o.normalize()
	ds, err := o.MakeDataset("wikipedia")
	if err != nil {
		return nil, err
	}
	rep := &PerfReport{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Scale:         o.Scale,
	}

	add := func(name string, events int, r testing.BenchmarkResult) {
		ns := float64(r.NsPerOp())
		sc := PerfScenario{
			Name:        name,
			Events:      events,
			NsPerOp:     ns,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if ns > 0 {
			sc.EvPerSec = float64(events) / (ns / 1e9)
		}
		rep.Scenarios = append(rep.Scenarios, sc)
		fmt.Fprintf(o.Out, "%-28s %12.0f ns/op %10.0f ev/s %10d B/op %8d allocs/op\n",
			name, sc.NsPerOp, sc.EvPerSec, sc.BytesPerOp, sc.AllocsPerOp)
	}

	{
		m, batch, err := perfModel(o, ds, 0)
		if err != nil {
			return nil, err
		}
		var pend core.Pending
		m.Score(batch, &pend) // warm the workspace pool and the Pending
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Score(batch, &pend)
			}
		})
		add("infer_batch_pooled", len(batch), r)
	}

	// Concurrent scoring throughput across a GOMAXPROCS sweep: scorers share
	// the store lock, so synchronous-link reads are supposed to scale, and
	// this row set records whether they do on this machine (flat beyond the
	// core count is the hardware's fault, falling at p>1 is ours).
	{
		prev := runtime.GOMAXPROCS(0)
		for _, p := range []int{1, 4, 8} {
			m, batch, err := perfModel(o, ds, 0)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return nil, err
			}
			// Each scorer keeps its own Pending; the workspaces the p
			// scorers check out warm up during the benchmark's first rounds.
			runtime.GOMAXPROCS(p)
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					var pend core.Pending
					for pb.Next() {
						m.Score(batch, &pend)
					}
				})
			})
			runtime.GOMAXPROCS(prev)
			add(fmt.Sprintf("infer_parallel_p%d", p), len(batch), r)
		}
	}

	// Durability overhead on the serving path: one full serve cycle
	// (Score + ApplyPending) with and without a WAL attached. The
	// wal_on row uses the serving default SyncInterval policy, so the apply
	// pays encode + group-commit write but not a per-batch fsync; the repo's
	// budget is wal_on within 15% of wal_off (docs/durability.md).
	for _, mode := range []struct {
		name string
		on   bool
	}{{"infer_batch_wal_off", false}, {"infer_batch_wal_on", true}} {
		m, batch, err := perfModel(o, ds, 0)
		if err != nil {
			return nil, err
		}
		var l *wal.Log
		if mode.on {
			dir, err := os.MkdirTemp("", "apan-bench-wal-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			if l, err = wal.Open(wal.Options{Dir: dir, Policy: wal.SyncInterval}); err != nil {
				return nil, err
			}
			if err := m.AttachWAL(l); err != nil {
				return nil, err
			}
		}
		var pend core.Pending
		m.Score(batch, &pend)
		m.ApplyPending(&pend)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Score(batch, &pend)
				m.ApplyPending(&pend)
			}
		})
		if mode.on {
			if err := m.DetachWAL().Close(); err != nil {
				return nil, err
			}
		}
		add(mode.name, len(batch), r)
	}

	// Checkpoint cut cost: the pause a durability cut imposes at the serial
	// apply point — the node store cloned under the writer lock — after each
	// applied batch. The runtime is restored (untimed) after each cut, so
	// every cut clones the same store however many times the loop runs.
	{
		m, batch, err := perfModel(o, ds, 0)
		if err != nil {
			return nil, err
		}
		var pend core.Pending
		snap := m.SnapshotRuntime()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.Score(batch, &pend)
				m.ApplyPending(&pend)
				b.StartTimer()
				m.SnapshotRuntime()
				b.StopTimer()
				m.RestoreRuntime(snap)
				b.StartTimer()
			}
		})
		add("checkpoint_cut", len(batch), r)
	}

	// Checkpoint load: what a restarted replica pays before replay —
	// LoadCheckpointFile of the warmed model's checkpoint into a fresh
	// model, built outside the timer. Events/op is the graph it restores.
	{
		m, _, err := perfModel(o, ds, 0)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp("", "apan-bench-ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "model.ckpt")
		if _, err := m.Checkpoint(path); err != nil {
			return nil, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh, err := core.New(m.Cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := fresh.LoadCheckpointFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("checkpoint_load", m.GraphEvents(), r)
	}

	// hops=1 isolates mail generation (φ, ρ, ψ) from the k-hop sampler.
	{
		m, batch, err := perfModel(o, ds, 1)
		if err != nil {
			return nil, err
		}
		prop := m.Propagator()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prop.ProcessBatch(batch, m.State())
			}
		})
		add("propagate_scratch_reused", len(batch), r)
	}

	// Online continual learning: one trainer mini-batch step (replay-buffer
	// sample, live-state gather, forward/backward, Adam) and one hot swap
	// (snapshot copy + module binding + atomic publish).
	{
		m, _, err := perfModel(o, ds, 0)
		if err != nil {
			return nil, err
		}
		const miniBatch = 64
		tn, err := train.New(m, train.Config{
			// Both gates effectively disabled: the benchmark drives steps
			// and publishes manually, the Pump below only fills the buffer.
			MiniBatch: miniBatch, StepEvery: 1 << 30, PublishEvery: 1 << 30,
			Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		tn.Observe(ds.Events[:1000])
		tn.Pump() // fill the replay buffer without stepping
		for i := 0; i < 3; i++ {
			// Warm the trainer's reusable mini-batch buffers so the row
			// records the steady state the zero-alloc guard enforces.
			if !tn.TrainStep() {
				return nil, fmt.Errorf("bench: train warm-up step skipped")
			}
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !tn.TrainStep() {
					b.Fatal("train step skipped: replay buffer underfilled")
				}
			}
		})
		add("online_train_step", miniBatch, r)

		params := m.Params()
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.SwapParams(params); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("swap_params_publish", 0, r)
	}

	// The /v1/score request decoder on the two body shapes clients send: a
	// batch at the paper's operating point and a single inline event, both
	// of dataset events as json.Marshal writes them.
	for _, mode := range []struct {
		name   string
		events int
	}{{"serve_decode_batch200", 200}, {"serve_decode_single", 1}} {
		wire := make([]serve.EventJSON, mode.events)
		for i, ev := range ds.Events[:mode.events] {
			wire[i] = serve.EventJSON{Src: ev.Src, Dst: ev.Dst, Time: ev.Time, Feat: ev.Feat}
		}
		var body []byte
		if mode.events == 1 {
			body, err = json.Marshal(wire[0])
		} else {
			body, err = json.Marshal(serve.ScoreRequest{Events: wire})
		}
		if err != nil {
			return nil, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := serve.DecodeScoreRequest(body, ds.EdgeDim); err != nil {
					b.Fatal(err)
				}
			}
		})
		add(mode.name, mode.events, r)
	}
	return rep, nil
}

// WritePerfJSON writes the report to path (the repo convention is
// BENCH_apan.json at the repo root).
func (r *PerfReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
