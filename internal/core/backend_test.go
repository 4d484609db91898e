package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"apan/internal/gdb"
	"apan/internal/tgraph"
)

// allBackends is the selector list every cross-backend test iterates.
var allBackends = []string{GraphBackendFlat, GraphBackendSharded}

func backendModel(t *testing.T, backend string) *Model {
	t.Helper()
	ds := tinyData(1)
	cfg := tinyConfig(ds.NumNodes)
	cfg.GraphBackend = backend
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBackendScoreAndDigestParity is the core-level parity proof: the same
// serve cycle (InferBatch → ApplyInference) on every graph backend must
// produce bitwise-identical scores per batch and equal RuntimeDigests —
// embeddings depend only on what the store returns, and the stores are
// query-for-query bit-exact.
func TestBackendScoreAndDigestParity(t *testing.T) {
	ds := tinyData(1)
	models := make(map[string]*Model, len(allBackends))
	for _, b := range allBackends {
		models[b] = backendModel(t, b)
	}
	ref := models[GraphBackendFlat]
	events := ds.Events[:600]
	for lo := 0; lo < len(events); lo += 50 {
		batch := events[lo : lo+50]
		refInf := ref.InferBatch(batch)
		for _, b := range allBackends[1:] {
			inf := models[b].InferBatch(batch)
			for i := range refInf.Scores {
				if inf.Scores[i] != refInf.Scores[i] {
					t.Fatalf("%s: batch@%d event %d: score %v vs flat %v", b, lo, i, inf.Scores[i], refInf.Scores[i])
				}
			}
			models[b].ApplyInference(inf)
			inf.Release()
		}
		ref.ApplyInference(refInf)
		refInf.Release()
	}
	want := ref.RuntimeDigest()
	for _, b := range allBackends[1:] {
		if got := models[b].RuntimeDigest(); got != want {
			t.Fatalf("%s: RuntimeDigest %x vs flat %x", b, got, want)
		}
	}
}

// TestInferBatchZeroAllocSteadyStateSharded repeats the allocation-
// regression guard on the sharded graph backend: swapping the store must
// not put allocations back on the synchronous hot path.
func TestInferBatchZeroAllocSteadyStateSharded(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	ds := tinyData(1)
	cfg := tinyConfig(ds.NumNodes)
	cfg.GraphBackend = GraphBackendSharded
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EvalStream(ds.Events[:200], nil)
	batch := ds.Events[200:240]
	for i := 0; i < 3; i++ {
		m.InferBatch(batch).Release()
	}
	allocs := testing.AllocsPerRun(50, func() {
		m.InferBatch(batch).Release()
	})
	if allocs > 0 {
		t.Fatalf("steady-state InferBatch allocated %.2f times per op, want 0", allocs)
	}
}

// TestShardedConcurrentServeCycle exercises the WAL-free concurrent apply
// fast path: with a concurrency-safe backend, whole serve cycles
// (InferBatch + ApplyInference) run from many goroutines with no graphMu
// serialization, racing Grow (EnsureNodes), digest cuts and watermark
// reads. Run under -race in CI; the assertion is that no apply is lost.
func TestShardedConcurrentServeCycle(t *testing.T) {
	t.Run(GraphBackendSharded, func(t *testing.T) {
		ds := tinyData(2)
		cfg := tinyConfig(ds.NumNodes)
		cfg.GraphBackend = GraphBackendSharded
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const (
			appliers = 4
			batches  = 12
			bs       = 25
		)
		var wg sync.WaitGroup
		for a := 0; a < appliers; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < batches; i++ {
					lo := (a*batches + i) * bs
					inf := m.InferBatch(ds.Events[lo : lo+bs])
					m.ApplyInference(inf)
					inf.Release()
				}
			}(a)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m.RuntimeDigest()
				_ = m.GraphEvents()
				m.EnsureNodes(ds.NumNodes + i)
			}
		}()
		wg.Wait()
		if got, want := m.GraphEvents(), appliers*batches*bs; got != want {
			t.Fatalf("lost applies: %d events, want %d", got, want)
		}
	})
}

// TestBackendSurvivesLifecycle pins the in-place Reset contract: the
// configured store implementation must survive ResetRuntime,
// Snapshot/RestoreRuntime and a checkpoint round trip — none of them may
// silently swap a sharded backend back to a flat graph.
func TestBackendSurvivesLifecycle(t *testing.T) {
	kind := func(s tgraph.Store) string { return fmt.Sprintf("%T", s) }
	for _, backend := range allBackends {
		t.Run(backend, func(t *testing.T) {
			ds := tinyData(1)
			m := backendModel(t, backend)
			want := kind(m.DB().G)

			m.EvalStream(ds.Events[:100], nil)
			snap := m.SnapshotRuntime()
			digest := m.RuntimeDigest()
			m.EvalStream(ds.Events[100:200], nil)
			m.RestoreRuntime(snap)
			if got := kind(m.DB().G); got != want {
				t.Fatalf("RestoreRuntime swapped backend: %s → %s", want, got)
			}
			if got := m.RuntimeDigest(); got != digest {
				t.Fatalf("RestoreRuntime digest %x, want %x", got, digest)
			}

			var buf bytes.Buffer
			if err := m.SaveCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			m.EvalStream(ds.Events[200:300], nil)
			if err := m.LoadCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if got := kind(m.DB().G); got != want {
				t.Fatalf("LoadCheckpoint swapped backend: %s → %s", want, got)
			}
			if got := m.RuntimeDigest(); got != digest {
				t.Fatalf("LoadCheckpoint digest %x, want %x", got, digest)
			}

			m.ResetRuntime()
			if got := kind(m.DB().G); got != want {
				t.Fatalf("ResetRuntime swapped backend: %s → %s", want, got)
			}
			if got := m.GraphEvents(); got != 0 {
				t.Fatalf("ResetRuntime left %d events", got)
			}
		})
	}
}

// TestNewWithDBReportsActualBackend: a model handed a ready-made store must
// report the store it holds, not the config's default.
func TestNewWithDBReportsActualBackend(t *testing.T) {
	cfg := tinyConfig(100)
	m, err := NewWithDB(cfg, gdb.New(tgraph.NewSharded(100, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.GraphBackend(); got != GraphBackendSharded {
		t.Fatalf("GraphBackend=%q, want %q", got, GraphBackendSharded)
	}
	if !m.graphSafe {
		t.Fatal("graphSafe not derived from the store")
	}
}

// TestGraphBackendValidation: unknown selectors are rejected at Normalize.
func TestGraphBackendValidation(t *testing.T) {
	cfg := tinyConfig(10)
	cfg.GraphBackend = "bogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("want error for unknown GraphBackend")
	}
}
