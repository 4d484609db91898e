package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"apan/internal/tgraph"
)

func concModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(Config{
		NumNodes: 32, EdgeDim: 8, Slots: 4, Neighbors: 4, Hops: 2,
		Heads: 2, Hidden: 16, BatchSize: 8, Seed: 1,
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
// many goroutines at once. Run under -race; the test passes if nothing
// tears or deadlocks and scores stay probabilities.
func TestConcurrentInferApply(t *testing.T) {
	m := concModel(t)
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

// TestScoreRacesEvictingApplier races scorers (Score, Embed and the gathers
// behind them) against one applier that carves state rows and mail blocks,
// evicts them (ClearNode) and re-carves them from the free lists. Every row
// the applier writes is node- and round-stamped and constant across its
// dimensions, so a gathered row must be zeros or that node's whole row, and
// a gathered mail constant across its dimensions. Run under -race.
func TestScoreRacesEvictingApplier(t *testing.T) {
	const (
		nodes  = 96 // three 32-row slabs
		dim    = 8
		batch  = 24 // 48 endpoints per batch against a warm budget of 8
		rounds = 40
	)
	m, err := New(Config{
		NumNodes: nodes, EdgeDim: dim, Slots: 2, Neighbors: 2, Hops: 2,
		Heads: 2, Hidden: 16, BatchSize: batch, Seed: 1, EvictMaxNodes: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	stamp := func(round int, n tgraph.NodeID) float32 { return float32(round*1000 + int(n) + 1) }

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the applier
		defer wg.Done()
		defer close(done)
		var plan Plan
		events := make([]tgraph.Event, batch)
		for round := 1; round <= rounds; round++ {
			for i := range events {
				src := tgraph.NodeID((round*batch + 2*i) % nodes)
				events[i] = tgraph.Event{Src: src, Dst: (src + 1) % nodes, Time: float64(round), Feat: make([]float32, dim)}
			}
			plan.Build(events, nil)
			rows := make([]float32, len(plan.Nodes)*dim)
			for r, n := range plan.Nodes {
				for j := range dim {
					rows[r*dim+j] = stamp(round, n)
				}
			}
			m.applyRows(events, rows, plan.SrcRow, plan.DstRow)
		}
	}()

	all := make([]tgraph.NodeID, nodes)
	times := make([]float64, nodes)
	for n := range all {
		all[n] = tgraph.NodeID(n)
	}
	check := func(in *EncodeInput) bool {
		for i, n := range all {
			z := in.ZPrev.Row(i)
			if z[0] != 0 && int(z[0])%1000 != int(n)+1 {
				t.Errorf("node %d gathers a row stamped for node %d", n, int(z[0])%1000-1)
				return false
			}
			for j := range z {
				if z[j] != z[0] {
					t.Errorf("node %d: torn row %v", n, z)
					return false
				}
			}
			for s := range in.Counts[i] {
				mail := in.Mails.Row(i*m.Cfg.Slots + s)
				for j := range mail {
					if mail[j] != mail[0] {
						t.Errorf("node %d: torn mail %v", n, mail)
						return false
					}
				}
			}
		}
		return true
	}
	for range 2 {
		wg.Add(1)
		go func() { // a scorer
			defer wg.Done()
			var p Pending
			score := make([]tgraph.Event, batch)
			for i := range score {
				score[i] = tgraph.Event{Src: tgraph.NodeID(i), Dst: tgraph.NodeID(nodes - 1 - i), Feat: make([]float32, dim)}
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				ps := m.acquirePass()
				if !m.gather(&ps.in, &ps.ts, all, times) {
					t.Error("the gather refused the node space")
				}
				ok := !t.Failed() && check(&ps.in)
				m.releasePass(ps)
				if !ok {
					return
				}
				m.Score(score, &p)
				m.Embed(all[:batch], times[:batch])
			}
		}()
	}
	wg.Wait()
	if st, _ := m.EvictionStats(); st.Evicted == 0 {
		t.Fatal("the applier evicted nothing; the test proves nothing")
	}
}

// TestEnsureNodesDuringServing interleaves dynamic node admission with
// concurrent scoring and verifies admitted nodes are immediately servable.
func TestEnsureNodesDuringServing(t *testing.T) {
	m := concModel(t)
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
	if !m.State().Touched(150) || m.State().Len(199) == 0 {
		t.Fatal("admitted nodes accumulated no streaming state")
	}
	if m.Embed([]tgraph.NodeID{150, 199}, []float64{1001, 1001}) == nil {
		t.Fatal("embed on admitted nodes")
	}
}

// TestScorePanicReleasesStoreLock: a Score that panics in its gather — here
// on node −1, which async.Pipeline refuses but a direct caller can pass —
// must not leave the store lock held, or the applier's next exclusive lock
// would block forever.
func TestScorePanicReleasesStoreLock(t *testing.T) {
	m := concModel(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Score on node -1 did not panic")
			}
		}()
		m.Score([]tgraph.Event{{Src: -1, Dst: 1, Time: 1, Feat: make([]float32, 8)}}, new(Pending))
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		applyBatch(m, concBatch(0, 8, 2))
		m.EnsureNodes(64)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ApplyPending or EnsureNodes blocked after a recovered Score panic")
	}
}

// TestLoadCheckpointRacesScorers: scorers keep gathering while checkpoint
// loads swap the staged stores in and grow the node space under the store
// lock. Run under -race; the test passes if nothing tears or deadlocks,
// scores stay probabilities, and the model ends where a quiet load of the
// last file leaves one.
func TestLoadCheckpointRacesScorers(t *testing.T) {
	src := concModel(t)
	src.EvalStream(concBatch(0, 64, 0), nil)
	src.EnsureNodes(40) // the loads grow the target's node space
	var ckpt bytes.Buffer
	if err := src.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	m := concModel(t)
	m.EvalStream(concBatch(5, 32, 0), nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var p Pending
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range m.Score(concBatch(int32(g*7+i), 6, 100), &p) {
					if s < 0 || s > 1 {
						t.Errorf("score %v outside [0,1]", s)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if err := m.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got, want := m.RuntimeDigest(), src.RuntimeDigest(); got != want || m.NumNodes() != 40 {
		t.Fatalf("after the loads: digest %016x over %d nodes, the saved model %016x over 40", got, m.NumNodes(), want)
	}
}
