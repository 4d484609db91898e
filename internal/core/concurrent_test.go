package core

import (
	"sync"
	"testing"

	"apan/internal/tgraph"
)

func concModel(t *testing.T, shards int) *Model {
	t.Helper()
	m, err := New(Config{
		NumNodes: 32, EdgeDim: 8, Slots: 4, Neighbors: 4, Hops: 2,
		Heads: 2, Hidden: 16, BatchSize: 8, Seed: 1, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func concBatch(base int32, n int, t float64) []tgraph.Event {
	evs := make([]tgraph.Event, n)
	for i := range evs {
		evs[i] = tgraph.Event{
			Src: (base + int32(i)) % 32, Dst: (base + int32(i) + 1) % 32,
			Time: t + float64(i), Feat: make([]float32, 8), Label: -1,
		}
	}
	return evs
}

// TestConcurrentInferApply runs scoring and asynchronous-link writes from
// many goroutines at once — the serving workload the sharded stores exist
// for. Run under -race; the test passes if nothing tears or deadlocks and
// scores stay probabilities.
func TestConcurrentInferApply(t *testing.T) {
	for _, shards := range []int{1, 8} {
		m := concModel(t, shards)
		m.EvalStream(concBatch(0, 32, 0), nil) // warm state and mailboxes

		var wg sync.WaitGroup
		const scorers, appliers, rounds = 4, 2, 50
		for g := 0; g < scorers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var p Pending
				for i := 0; i < rounds; i++ {
					for _, sc := range m.Score(concBatch(int32(g), 8, float64(100+i)), &p) {
						if sc < 0 || sc > 1 {
							t.Errorf("score %v out of [0,1]", sc)
							return
						}
					}
				}
			}(g)
		}
		for g := 0; g < appliers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					applyBatch(m, concBatch(int32(10+g), 8, float64(200+i)))
				}
			}(g)
		}
		wg.Wait()

		if m.DB().G.NumEvents() == 0 {
			t.Fatal("no events reached the graph")
		}
	}
}

// TestEnsureNodesDuringServing interleaves dynamic node admission with
// concurrent scoring and verifies admitted nodes are immediately servable.
func TestEnsureNodesDuringServing(t *testing.T) {
	m := concModel(t, 8)
	m.EvalStream(concBatch(0, 32, 0), nil)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for n := 40; n <= 200; n += 40 {
			m.EnsureNodes(n)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			applyBatch(m, concBatch(int32(i), 8, float64(10+i)))
		}
	}()
	wg.Wait()

	if got := m.NumNodes(); got != 200 {
		t.Fatalf("NumNodes after admission: %d", got)
	}
	// Unseen nodes score (cold start) and then accumulate streaming state.
	ev := []tgraph.Event{{Src: 150, Dst: 199, Time: 1000, Feat: make([]float32, 8), Label: -1}}
	var p Pending
	if s := m.Score(ev, &p); len(s) != 1 || s[0] < 0 || s[0] > 1 {
		t.Fatalf("cold-start score: %v", s)
	}
	m.ApplyPending(&p)
	if !m.State().Touched(150) || m.Mailbox().Len(199) == 0 {
		t.Fatal("admitted nodes accumulated no streaming state")
	}
	if m.Embed([]tgraph.NodeID{150, 199}, []float64{1001, 1001}) == nil {
		t.Fatal("embed on admitted nodes")
	}
}
