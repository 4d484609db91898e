package baselines

import (
	"math/rand"

	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/eval"
	"apan/internal/nn"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// StaticModel is the protocol for the non-temporal baselines: fit once on
// the training window's static snapshot, then score arbitrary node pairs.
type StaticModel interface {
	Name() string
	Fit(d *dataset.Dataset, split *dataset.Split) // trains on split.Train only
	Score(pairs [][2]tgraph.NodeID) []float32
	Embedding(n tgraph.NodeID) []float32
}

// EvalStaticLinkPrediction scores the positive events of evs against one
// sampled negative each, mirroring the dynamic-model protocol.
func EvalStaticLinkPrediction(m StaticModel, evs []tgraph.Event, ns *dataset.NegSampler, rng *rand.Rand) (acc, ap float64) {
	pairs := make([][2]tgraph.NodeID, 0, 2*len(evs))
	labels := make([]bool, 0, 2*len(evs))
	for i := range evs {
		ev := &evs[i]
		pairs = append(pairs, [2]tgraph.NodeID{ev.Src, ev.Dst})
		labels = append(labels, true)
		pairs = append(pairs, [2]tgraph.NodeID{ev.Src, ns.Sample(rng, ev.Dst)})
		labels = append(labels, false)
		ns.Observe(ev)
	}
	scores := m.Score(pairs)
	return eval.Accuracy(scores, labels, 0.5), eval.AveragePrecision(scores, labels)
}

// nodeInputFeatures derives static node inputs as the mean of each node's
// incident training edge features — the standard adaptation when datasets
// carry edge features but no node features (§4.1).
func nodeInputFeatures(d *dataset.Dataset, train []tgraph.Event) *tensor.Matrix {
	x := tensor.New(d.NumNodes, d.EdgeDim)
	counts := make([]float32, d.NumNodes)
	for i := range train {
		ev := &train[i]
		tensor.Axpy(x.Row(int(ev.Src)), ev.Feat, 1)
		tensor.Axpy(x.Row(int(ev.Dst)), ev.Feat, 1)
		counts[ev.Src]++
		counts[ev.Dst]++
	}
	for n := 0; n < d.NumNodes; n++ {
		if counts[n] > 0 {
			row := x.Row(n)
			inv := 1 / counts[n]
			for j := range row {
				row[j] *= inv
			}
		}
	}
	return x
}

// StaticGNNKind selects the aggregation of the sampled-neighborhood GNN.
type StaticGNNKind int

const (
	// KindSAGE mean-aggregates neighbors (Hamilton et al., 2017).
	KindSAGE StaticGNNKind = iota
	// KindGAT attends over neighbors (Velickovic et al., 2018).
	KindGAT
)

// StaticGNNConfig configures the GAT / GraphSAGE baselines.
type StaticGNNConfig struct {
	Kind      StaticGNNKind
	Layers    int
	Fanout    int
	Heads     int // GAT only
	Hidden    int
	Dropout   float32
	LR        float32
	BatchSize int
	Epochs    int
	Seed      int64
}

func (c *StaticGNNConfig) normalize() {
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.Fanout == 0 {
		c.Fanout = 10
	}
	if c.Heads == 0 {
		c.Heads = 2
	}
	if c.Hidden == 0 {
		c.Hidden = 80
	}
	if c.Dropout == 0 {
		c.Dropout = 0.1
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 200
	}
	if c.Epochs == 0 {
		c.Epochs = 5
	}
}

// StaticGNN is the shared implementation of the GAT and GraphSAGE baselines:
// an L-layer sampled-neighborhood GNN over the training window's static
// snapshot, trained on the same link-prediction objective as the dynamic
// models but blind to edge timestamps (the Fig. 1b failure mode).
type StaticGNN struct {
	cfg StaticGNNConfig
	rng *rand.Rand

	csr  *tgraph.CSR
	x    *tensor.Matrix // node input features
	dim  int
	proj []*nn.Linear // per layer: input projection (SAGE: 2d→d concat-agg; GAT: d→d)
	attn []*nn.MultiHeadAttention
	dec  *core.LinkDecoder
	opt  *nn.Adam
}

// NewStaticGNN builds an untrained GAT or GraphSAGE baseline.
func NewStaticGNN(cfg StaticGNNConfig, edgeDim int) *StaticGNN {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &StaticGNN{cfg: cfg, rng: rng, dim: edgeDim}
	for l := 0; l < cfg.Layers; l++ {
		if cfg.Kind == KindSAGE {
			m.proj = append(m.proj, nn.NewLinear(2*edgeDim, edgeDim, rng))
		} else {
			m.attn = append(m.attn, nn.NewMultiHeadAttention(edgeDim, cfg.Heads, rng))
			m.proj = append(m.proj, nn.NewLinear(2*edgeDim, edgeDim, rng))
		}
	}
	m.dec = core.NewLinkDecoder(edgeDim, cfg.Hidden, cfg.Dropout, rng)
	m.opt = nn.NewAdam(m.Params(), cfg.LR)
	return m
}

// Name identifies the model.
func (m *StaticGNN) Name() string {
	if m.cfg.Kind == KindSAGE {
		return "SAGE"
	}
	return "GAT"
}

// Params returns all trainable tensors.
func (m *StaticGNN) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	for _, l := range m.proj {
		ps = append(ps, l.Params()...)
	}
	for _, a := range m.attn {
		ps = append(ps, a.Params()...)
	}
	return append(ps, m.dec.Params()...)
}

// reprs computes layer-L node representations by recursive neighbor
// sampling on the static snapshot.
func (m *StaticGNN) reprs(tp *nn.Tape, nodes []tgraph.NodeID, layer int) *nn.Tensor {
	if layer == 0 {
		x := tensor.New(len(nodes), m.dim)
		for i, n := range nodes {
			if n >= 0 {
				copy(x.Row(i), m.x.Row(int(n)))
			}
		}
		return tp.Input(x)
	}
	k := m.cfg.Fanout
	neigh := make([]tgraph.NodeID, len(nodes)*k)
	for i := range neigh {
		neigh[i] = -1 // padding
	}
	counts := make([]int, len(nodes))
	for i, n := range nodes {
		if n < 0 {
			continue
		}
		nbrs := m.csr.Neighbors(n)
		if len(nbrs) == 0 {
			continue
		}
		c := k
		if len(nbrs) < k {
			c = len(nbrs)
		}
		counts[i] = c
		if len(nbrs) <= k {
			copy(neigh[i*k:], nbrs)
		} else {
			for j := 0; j < k; j++ {
				neigh[i*k+j] = nbrs[m.rng.Intn(len(nbrs))]
			}
		}
	}
	selfPrev := m.reprs(tp, nodes, layer-1)
	neighPrev := m.reprs(tp, neigh, layer-1)
	l := layer - 1
	if m.cfg.Kind == KindSAGE {
		segs := make([]int32, len(neigh))
		for i := range neigh {
			segs[i] = int32(i / k)
		}
		// Zero padded rows so the mean is over sampled neighbors only; the
		// count trick: SegmentMean averages all k slots, so rescale.
		agg := tp.SegmentMean(neighPrev, segs, len(nodes))
		scale := tensor.New(len(nodes), m.dim)
		for i, c := range counts {
			row := scale.Row(i)
			v := float32(0)
			if c > 0 {
				v = float32(k) / float32(c)
			}
			for j := range row {
				row[j] = v
			}
		}
		agg = tp.Mul(agg, tp.Input(scale))
		return tp.ReLU(m.proj[l].Forward(tp, tp.ConcatCols(selfPrev, agg)))
	}
	att, _ := m.attn[l].Forward(tp, selfPrev, neighPrev, counts)
	return tp.ReLU(m.proj[l].Forward(tp, tp.ConcatCols(att, selfPrev)))
}

// Fit trains the GNN on the training window.
func (m *StaticGNN) Fit(d *dataset.Dataset, split *dataset.Split) {
	g := tgraph.New(d.NumNodes)
	for _, ev := range split.Train {
		g.AddEvent(ev)
	}
	m.csr = g.StaticSnapshot(split.TrainEnd + 1)
	m.x = nodeInputFeatures(d, split.Train)

	ns := dataset.NewNegSampler(d.NumNodes)
	for i := range split.Train {
		ns.Observe(&split.Train[i])
	}
	order := m.rng.Perm(len(split.Train))
	bs := m.cfg.BatchSize
	var p core.Plan
	var negs []tgraph.NodeID
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		for lo := 0; lo < len(order); lo += bs {
			hi := lo + bs
			if hi > len(order) {
				hi = len(order)
			}
			var events []tgraph.Event
			for _, oi := range order[lo:hi] {
				events = append(events, split.Train[oi])
			}
			negs = negs[:0]
			for i := range events {
				negs = append(negs, ns.Sample(m.rng, events[i].Dst))
			}
			p.Build(events, negs)
			tp := nn.NewTrainingTape(m.rng)
			z := m.reprs(tp, p.Nodes, m.cfg.Layers)
			// Each pair gathers its own source rows: one shared gather would
			// sum the two pairs' gradients in another order.
			pos := m.dec.Forward(tp, tp.Gather(z, p.SrcRow), tp.Gather(z, p.DstRow))
			neg := m.dec.Forward(tp, tp.Gather(z, p.SrcRow), tp.Gather(z, p.NegRow))
			tp.Backward(core.PairBCE(tp, pos, neg))
			nn.ClipGradNorm(m.Params(), 5)
			m.opt.Step()
			m.opt.ZeroGrad()
		}
	}
}

// Score scores node pairs with the trained model.
func (m *StaticGNN) Score(pairs [][2]tgraph.NodeID) []float32 {
	out := make([]float32, 0, len(pairs))
	const chunk = 512
	for lo := 0; lo < len(pairs); lo += chunk {
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		sub := pairs[lo:hi]
		nodes := make([]tgraph.NodeID, 0, 2*len(sub))
		rowOf := map[tgraph.NodeID]int32{}
		var srcRow, dstRow []int32
		row := func(n tgraph.NodeID) int32 {
			if r, ok := rowOf[n]; ok {
				return r
			}
			r := int32(len(nodes))
			rowOf[n] = r
			nodes = append(nodes, n)
			return r
		}
		for _, pr := range sub {
			srcRow = append(srcRow, row(pr[0]))
			dstRow = append(dstRow, row(pr[1]))
		}
		tp := nn.NewTape()
		z := m.reprs(tp, nodes, m.cfg.Layers)
		logits := m.dec.Forward(tp, tp.Gather(z, srcRow), tp.Gather(z, dstRow))
		out = append(out, sigmoidScores(logits.Value())...)
	}
	return out
}

// Embedding returns the model's representation of node n.
func (m *StaticGNN) Embedding(n tgraph.NodeID) []float32 {
	tp := nn.NewTape()
	z := m.reprs(tp, []tgraph.NodeID{n}, m.cfg.Layers)
	out := make([]float32, m.dim)
	copy(out, z.Value().Row(0))
	return out
}
