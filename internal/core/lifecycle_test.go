package core

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"apan/internal/tgraph"
)

func applyBatch(m *Model, events []tgraph.Event) {
	var p Pending
	m.Score(events, &p)
	m.ApplyPending(&p)
}

// TestShardedConcurrentServeCycle runs whole serve cycles (Score +
// ApplyPending) from many goroutines, racing Grow (EnsureNodes), digest
// cuts and watermark reads, while every graph access serializes on the
// writer lock. Run under -race in CI; the assertion is that no apply is
// lost. The name and subtest label are kept from the lock-striped stores
// the test was first written for.
func TestShardedConcurrentServeCycle(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		ds := tinyData(2)
		m, err := New(tinyConfig(ds.NumNodes))
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
					applyBatch(m, ds.Events[lo:lo+bs])
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

// TestBackendSurvivesLifecycle pins the in-place Reset contract: the model
// keeps the same *tgraph.Graph across Snapshot/RestoreRuntime, a checkpoint
// round trip and ResetRuntime — so a gdb.DB built around it (latency model,
// accounting) keeps seeing the live graph — and the first two restore the
// captured digest. The subtest is named for the flat graph store.
func TestBackendSurvivesLifecycle(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		ds := tinyData(1)
		m, err := New(tinyConfig(ds.NumNodes))
		if err != nil {
			t.Fatal(err)
		}
		want := m.DB().G

		m.EvalStream(ds.Events[:100], nil)
		snap := m.SnapshotRuntime()
		digest := m.RuntimeDigest()
		m.EvalStream(ds.Events[100:200], nil)
		m.RestoreRuntime(snap)
		if m.DB().G != want {
			t.Fatal("RestoreRuntime replaced the graph")
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
		if m.DB().G != want {
			t.Fatal("LoadCheckpoint replaced the graph")
		}
		if got := m.RuntimeDigest(); got != digest {
			t.Fatalf("LoadCheckpoint digest %x, want %x", got, digest)
		}

		m.ResetRuntime()
		if m.DB().G != want {
			t.Fatal("ResetRuntime replaced the graph")
		}
		if got := m.GraphEvents(); got != 0 {
			t.Fatalf("ResetRuntime left %d events", got)
		}
	})
}

// TestCheckpointSurvivesRestoreAndGrowth: mutations that bypass the apply
// path — a runtime restore, node admission — must land in the next
// checkpoint, so a model loaded from it has the live digest and watermark.
// A snapshot restores its own graph, not a prefix of whatever log the model
// holds by then: after a reset and a longer or a shorter stream of other
// events, and in a second model of the same Config, the model re-saves the
// checkpoint bytes saved when the snapshot was taken.
func TestCheckpointSurvivesRestoreAndGrowth(t *testing.T) {
	d := tinyData(33)
	cfg := tinyConfig(d.NumNodes)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyBatch(m, d.Events[:100])
	p := filepath.Join(t.TempDir(), "live.ckpt")
	if _, err := m.Checkpoint(p); err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		if _, err := m.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.LoadCheckpointFile(p); err != nil {
			t.Fatal(err)
		}
		if got, want := r.RuntimeDigest(), m.RuntimeDigest(); got != want {
			t.Fatalf("%s: checkpoint digest %x != live %x", what, got, want)
		}
		if got, want := r.GraphEvents(), m.GraphEvents(); got != want {
			t.Fatalf("%s: checkpoint watermark %d != live %d", what, got, want)
		}
	}

	snap := m.SnapshotRuntime()
	applyBatch(m, d.Events[100:150])
	m.RestoreRuntime(snap)
	check("after restore")

	snap = m.SnapshotRuntime()
	want := saveBytes(t, m)
	for _, n := range []int{150, 30} {
		m.ResetRuntime()
		applyBatch(m, d.Events[300:300+n])
		m.RestoreRuntime(snap)
		if got := saveBytes(t, m); !bytes.Equal(got, want) {
			t.Fatalf("restore after a reset and %d other events: checkpoint differs at byte %d of %d", n, firstDiff(got, want), len(want))
		}
	}
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other.RestoreRuntime(snap)
	if got := saveBytes(t, other); !bytes.Equal(got, want) {
		t.Fatalf("restore into a second model: checkpoint differs at byte %d of %d", firstDiff(got, want), len(want))
	}

	m.EnsureNodes(d.NumNodes + 37)
	applyBatch(m, d.Events[100:150])
	check("after growth")
}
