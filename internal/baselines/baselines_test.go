package baselines

import (
	"math"
	"math/rand"
	"testing"

	"apan/internal/dataset"
	"apan/internal/gdb"
	"apan/internal/tgraph"
)

func testData(t *testing.T) (*dataset.Dataset, *dataset.Split) {
	t.Helper()
	d := dataset.Wikipedia(dataset.Config{Scale: 0.01, Seed: 7, NoDrift: true})
	for i := range d.Events {
		d.Events[i].Feat = d.Events[i].Feat[:16]
	}
	d.EdgeDim = 16
	return d, d.Split(0.7, 0.15)
}

// trainAndEval runs a few epochs of the dynamic-model protocol and returns
// validation AP.
func trainAndEval(t *testing.T, m StreamModel, d *dataset.Dataset, split *dataset.Split, epochs int) float64 {
	t.Helper()
	var ap float64
	for e := 0; e < epochs; e++ {
		m.ResetRuntime()
		ns := dataset.NewNegSampler(d.NumNodes)
		tr := m.TrainEpoch(split.Train, ns)
		if math.IsNaN(tr.Loss) {
			t.Fatalf("%s: training loss NaN at epoch %d", m.Name(), e)
		}
		ap = m.EvalStream(split.Val, ns).AP
	}
	return ap
}

func TestTGATLearns(t *testing.T) {
	d, split := testData(t)
	db := gdb.New(tgraph.New(d.NumNodes))
	m := NewTGAT(TGATConfig{
		NumNodes: d.NumNodes, EdgeDim: 16, Layers: 1, Fanout: 4,
		Heads: 2, Hidden: 32, LR: 0.001, BatchSize: 50, Seed: 1,
	}, db)
	if m.Name() != "TGAT-1layer" {
		t.Fatalf("name: %s", m.Name())
	}
	ap := trainAndEval(t, m, d, split, 6)
	if ap < 0.55 {
		t.Fatalf("TGAT val AP %v", ap)
	}
}

func TestTGATTwoLayerRunsAndQueriesMore(t *testing.T) {
	d, split := testData(t)
	short := split.Train[:300]

	db1 := gdb.New(tgraph.New(d.NumNodes))
	m1 := NewTGAT(TGATConfig{NumNodes: d.NumNodes, EdgeDim: 16, Layers: 1, Fanout: 4, Hidden: 16, BatchSize: 50, Seed: 1}, db1)
	m1.ResetRuntime()
	m1.TrainEpoch(short, dataset.NewNegSampler(d.NumNodes))
	q1 := m1.DB().Stats().Queries

	db2 := gdb.New(tgraph.New(d.NumNodes))
	m2 := NewTGAT(TGATConfig{NumNodes: d.NumNodes, EdgeDim: 16, Layers: 2, Fanout: 4, Hidden: 16, BatchSize: 50, Seed: 1}, db2)
	m2.ResetRuntime()
	m2.TrainEpoch(short, dataset.NewNegSampler(d.NumNodes))
	q2 := m2.DB().Stats().Queries

	if m2.Name() != "TGAT-2layers" {
		t.Fatalf("name: %s", m2.Name())
	}
	if q2 <= q1*2 {
		t.Fatalf("2-layer TGAT should fan out queries: %d vs %d", q2, q1)
	}
}

func TestTGNLearns(t *testing.T) {
	d, split := testData(t)
	db := gdb.New(tgraph.New(d.NumNodes))
	m := NewTGN(TGNConfig{
		NumNodes: d.NumNodes, EdgeDim: 16, Layers: 1, Fanout: 4,
		Heads: 2, Hidden: 32, LR: 0.001, BatchSize: 50, Seed: 1,
	}, db)
	if m.Name() != "TGN-1layer" {
		t.Fatalf("name: %s", m.Name())
	}
	ap := trainAndEval(t, m, d, split, 6)
	if ap < 0.55 {
		t.Fatalf("TGN val AP %v", ap)
	}
}

func TestTGNMemoryPersistsAcrossBatches(t *testing.T) {
	d, _ := testData(t)
	db := gdb.New(tgraph.New(d.NumNodes))
	m := NewTGN(TGNConfig{NumNodes: d.NumNodes, EdgeDim: 16, Layers: 1, Fanout: 4, Hidden: 16, BatchSize: 25, Seed: 1}, db)
	m.ResetRuntime()
	m.EvalStream(d.Events[:100], nil)
	var touched int
	for n := 0; n < d.NumNodes; n++ {
		if m.mem.Touched(tgraph.NodeID(n)) {
			touched++
		}
	}
	if touched == 0 {
		t.Fatal("TGN memory never written")
	}
	m.ResetRuntime()
	for n := 0; n < d.NumNodes; n++ {
		if m.mem.Touched(tgraph.NodeID(n)) {
			t.Fatal("ResetRuntime did not clear memory")
		}
	}
}

func TestJODIELearns(t *testing.T) {
	d, split := testData(t)
	m := NewJODIE(JODIEConfig{
		NumNodes: d.NumNodes, EdgeDim: 16, Hidden: 32, LR: 0.001, BatchSize: 50, Seed: 1,
	})
	if m.Name() != "JODIE" {
		t.Fatalf("name: %s", m.Name())
	}
	ap := trainAndEval(t, m, d, split, 4)
	if ap < 0.55 {
		t.Fatalf("JODIE val AP %v", ap)
	}
}

func TestDyRepLearns(t *testing.T) {
	d, split := testData(t)
	db := gdb.New(tgraph.New(d.NumNodes))
	m := NewDyRep(DyRepConfig{
		NumNodes: d.NumNodes, EdgeDim: 16, Fanout: 4, Hidden: 32, LR: 0.001, BatchSize: 50, Seed: 1,
	}, db)
	if m.Name() != "DyRep" {
		t.Fatalf("name: %s", m.Name())
	}
	ap := trainAndEval(t, m, d, split, 4)
	if ap < 0.55 {
		t.Fatalf("DyRep val AP %v", ap)
	}
}

func TestStaticGNNVariants(t *testing.T) {
	d, split := testData(t)
	for _, kind := range []StaticGNNKind{KindSAGE, KindGAT} {
		m := NewStaticGNN(StaticGNNConfig{
			Kind: kind, Layers: 2, Fanout: 4, Hidden: 32,
			LR: 0.002, BatchSize: 64, Epochs: 3, Seed: 1,
		}, d.EdgeDim)
		m.Fit(d, split)
		ns := dataset.NewNegSampler(d.NumNodes)
		for i := range split.Train {
			ns.Observe(&split.Train[i])
		}
		rng := rand.New(rand.NewSource(3))
		acc, ap := EvalStaticLinkPrediction(m, split.Val, ns, rng)
		if math.IsNaN(ap) || ap < 0.55 {
			t.Fatalf("%s val AP %v (acc %v)", m.Name(), ap, acc)
		}
		if emb := m.Embedding(split.Val[0].Src); len(emb) != d.EdgeDim {
			t.Fatalf("%s embedding dim %d", m.Name(), len(emb))
		}
	}
}

func TestGAEAndVGAE(t *testing.T) {
	d, split := testData(t)
	for _, variational := range []bool{false, true} {
		m := NewGAE(GAEConfig{Variational: variational, Epochs: 40, PairsPerEp: 1024, Seed: 1}, d.EdgeDim)
		m.Fit(d, split)
		wantName := "GAE"
		if variational {
			wantName = "VGAE"
		}
		if m.Name() != wantName {
			t.Fatalf("name: %s", m.Name())
		}
		ns := dataset.NewNegSampler(d.NumNodes)
		for i := range split.Train {
			ns.Observe(&split.Train[i])
		}
		rng := rand.New(rand.NewSource(3))
		_, ap := EvalStaticLinkPrediction(m, split.Val, ns, rng)
		if math.IsNaN(ap) || ap < 0.55 {
			t.Fatalf("%s val AP %v", m.Name(), ap)
		}
		if len(m.Embedding(0)) != 32 {
			t.Fatalf("latent dim %d", len(m.Embedding(0)))
		}
	}
}

func TestWalkFamilies(t *testing.T) {
	d, split := testData(t)
	for _, kind := range []WalkKind{KindDeepWalk, KindNode2Vec, KindCTDNE} {
		m := NewWalkEmbedding(WalkConfig{Kind: kind, Dim: 32, WalksPer: 4, Seed: 1})
		m.Fit(d, split)
		ns := dataset.NewNegSampler(d.NumNodes)
		for i := range split.Train {
			ns.Observe(&split.Train[i])
		}
		rng := rand.New(rand.NewSource(3))
		_, ap := EvalStaticLinkPrediction(m, split.Val, ns, rng)
		if math.IsNaN(ap) || ap < 0.52 {
			t.Fatalf("%s val AP %v", m.Name(), ap)
		}
	}
}

func TestWalkNames(t *testing.T) {
	names := map[WalkKind]string{KindDeepWalk: "DeepWalk", KindNode2Vec: "Node2vec", KindCTDNE: "CTDNE"}
	for kind, want := range names {
		if got := NewWalkEmbedding(WalkConfig{Kind: kind}).Name(); got != want {
			t.Fatalf("name %v: got %s want %s", kind, got, want)
		}
	}
}

func TestCTDNEWalksRespectTime(t *testing.T) {
	// Build a path graph with strictly increasing times and verify temporal
	// walks never move backwards in time.
	g := tgraph.New(6)
	feat := make([]float32, 4)
	for i := 0; i < 5; i++ {
		g.AddEvent(tgraph.Event{Src: tgraph.NodeID(i), Dst: tgraph.NodeID(i + 1), Time: float64(i + 1), Feat: feat})
	}
	m := NewWalkEmbedding(WalkConfig{Kind: KindCTDNE, Seed: 1})
	m.cfg.normalize()
	train := g.EventLog()
	walks := m.temporalWalks(g, train)
	if len(walks) == 0 {
		t.Fatal("no temporal walks generated")
	}
	// On the path graph, edge (i, i+1) has time i+1: verify every walk's
	// edge-time sequence is non-decreasing (CTDNE's defining invariant).
	edgeTime := func(a, b tgraph.NodeID) float64 {
		if a > b {
			a, b = b, a
		}
		if b != a+1 {
			t.Fatalf("walk used a non-edge (%d,%d)", a, b)
		}
		return float64(b)
	}
	for _, w := range walks {
		prev := edgeTime(w[0], w[1])
		for i := 2; i < len(w); i++ {
			cur := edgeTime(w[i-1], w[i])
			if cur < prev {
				t.Fatalf("walk moved backwards in time: %v", w)
			}
			prev = cur
		}
	}
}

func TestRunStreamBatching(t *testing.T) {
	d, _ := testData(t)
	m := NewJODIE(JODIEConfig{NumNodes: d.NumNodes, EdgeDim: 16, Hidden: 16, BatchSize: 30, Seed: 1})
	m.ResetRuntime()
	res := m.EvalStream(d.Events[:100], nil)
	if res.Batches != 4 { // 30+30+30+10
		t.Fatalf("batches=%d", res.Batches)
	}
	if res.SyncHist.N() != 4 {
		t.Fatalf("latency samples=%d", res.SyncHist.N())
	}
	if !math.IsNaN(res.MaskedAP) {
		t.Fatalf("MaskedAP %v without a mask, want NaN", res.MaskedAP)
	}
}

func TestStreamModelInterfaces(t *testing.T) {
	d, _ := testData(t)
	db := gdb.New(tgraph.New(d.NumNodes))
	var models []StreamModel
	models = append(models,
		NewTGAT(TGATConfig{NumNodes: d.NumNodes, EdgeDim: 16, BatchSize: 50}, db),
		NewTGN(TGNConfig{NumNodes: d.NumNodes, EdgeDim: 16, BatchSize: 50}, gdb.New(tgraph.New(d.NumNodes))),
		NewJODIE(JODIEConfig{NumNodes: d.NumNodes, EdgeDim: 16, BatchSize: 50}),
		NewDyRep(DyRepConfig{NumNodes: d.NumNodes, EdgeDim: 16, BatchSize: 50}, gdb.New(tgraph.New(d.NumNodes))),
	)
	for _, m := range models {
		m.ResetRuntime()
		var n int
		m.CollectStream(d.Events[:60], nil, func(ev *tgraph.Event, zsrc, zdst []float32) {
			if len(zsrc) != 16 || len(zdst) != 16 {
				t.Fatalf("%s: bad embedding dims", m.Name())
			}
			n++
		})
		if n != 60 {
			t.Fatalf("%s: collect called %d times", m.Name(), n)
		}
	}
}
