package baselines

import (
	"math/rand"

	"apan/internal/core"
	"apan/internal/nn"
	"apan/internal/state"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// JODIEConfig configures the JODIE baseline.
type JODIEConfig struct {
	NumNodes  int
	EdgeDim   int
	Hidden    int
	Dropout   float32
	LR        float32
	BatchSize int
	Seed      int64
}

func (c *JODIEConfig) normalize() {
	if c.Hidden == 0 {
		c.Hidden = 80
	}
	if c.Dropout == 0 {
		c.Dropout = 0.1
	}
	if c.LR == 0 {
		c.LR = 1e-4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 200
	}
}

// JODIE is Kumar et al. (KDD 2019): coupled recurrent updates of source and
// destination embeddings plus a time-projection operator that drifts a
// node's embedding between events, ẑ(t+Δ) = (1 + Δ·w) ⊙ z(t). It never
// queries the graph — which makes it fast but limits it to 1-hop dynamics
// (the limitation §2.4 of the APAN paper points out).
type JODIE struct {
	streamer
	cfg     JODIEConfig
	srcCell *nn.GRUCell // role-specific update cells
	dstCell *nn.GRUCell
	projW   *nn.Tensor // 1×d drift vector w
	timeEnc *nn.TimeEncoder
	mem     *state.Store
	pending map[tgraph.NodeID]pendingEvent
	pendSrc map[tgraph.NodeID]bool // role of the pending event

	// Running mean of inter-event gaps, used to standardize Δt in the
	// projection factor (JODIE normalizes time deltas; raw seconds would
	// blow the drift term up by orders of magnitude).
	dtSum   float64
	dtCount int64
}

// NewJODIE builds a JODIE baseline.
func NewJODIE(cfg JODIEConfig) *JODIE {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.EdgeDim
	m := &JODIE{
		cfg:     cfg,
		srcCell: nn.NewGRUCell(3*d, d, rng),
		dstCell: nn.NewGRUCell(3*d, d, rng),
		projW:   nn.Param(1, d),
		timeEnc: nn.NewTimeEncoder(d, rng),
		mem:     state.New(cfg.NumNodes, d),
		pending: make(map[tgraph.NodeID]pendingEvent),
		pendSrc: make(map[tgraph.NodeID]bool),
	}
	m.streamer = streamer{
		rng: rng, dec: core.NewLinkDecoder(d, cfg.Hidden, cfg.Dropout, rng),
		batchSize: cfg.BatchSize, numNodes: cfg.NumNodes, embed: m.repr, commit: m.commitMemory,
	}
	m.projW.W.RandN(rng, 0.01)
	m.params = m.Params()
	m.opt = nn.NewAdam(m.params, cfg.LR)
	return m
}

// Name identifies the model.
func (m *JODIE) Name() string { return "JODIE" }

// Params returns all trainable tensors.
func (m *JODIE) Params() []*nn.Tensor {
	ps := append(m.srcCell.Params(), m.dstCell.Params()...)
	ps = append(ps, m.projW)
	ps = append(ps, m.timeEnc.Params()...)
	return append(ps, m.dec.Params()...)
}

// ResetRuntime clears the embedding memory and pending updates.
func (m *JODIE) ResetRuntime() {
	m.mem.Reset()
	m.pending = make(map[tgraph.NodeID]pendingEvent)
	m.pendSrc = make(map[tgraph.NodeID]bool)
	m.dtSum, m.dtCount = 0, 0
}

// normDt standardizes a time delta by the running mean gap, clamped so a
// long-dormant node cannot explode the projection.
func (m *JODIE) normDt(dt float64) float32 {
	if dt < 0 {
		dt = 0
	}
	mean := 1.0
	if m.dtCount > 0 {
		mean = m.dtSum / float64(m.dtCount)
	}
	if mean <= 0 {
		mean = 1
	}
	v := dt / mean
	if v > 10 {
		v = 10
	}
	return float32(v)
}

// observeDt feeds the running gap statistics.
func (m *JODIE) observeDt(dt float64) {
	if dt > 0 {
		m.dtSum += dt
		m.dtCount++
	}
}

// updateMemory applies pending recurrent updates for batch nodes on tape,
// split by role so each GRU sees only its side of the interactions.
func (m *JODIE) updateMemory(tp *nn.Tape, nodes []tgraph.NodeID) *Overlay {
	d := m.cfg.EdgeDim
	var srcUpd, dstUpd []tgraph.NodeID
	for _, n := range nodes {
		if _, ok := m.pending[n]; !ok {
			continue
		}
		if m.pendSrc[n] {
			srcUpd = append(srcUpd, n)
		} else {
			dstUpd = append(dstUpd, n)
		}
	}
	if len(srcUpd)+len(dstUpd) == 0 {
		return nil
	}
	build := func(upd []tgraph.NodeID, cell *nn.GRUCell) *nn.Tensor {
		if len(upd) == 0 {
			return nil
		}
		memRows := tensor.New(len(upd), d)
		peerRows := tensor.New(len(upd), d)
		feats := tensor.New(len(upd), d)
		dts := make([]float32, len(upd))
		for i, n := range upd {
			pe := m.pending[n]
			copy(memRows.Row(i), m.mem.Get(n))
			copy(peerRows.Row(i), m.mem.Get(pe.peer))
			copy(feats.Row(i), pe.feat)
			dt := pe.t - m.mem.LastTime(n)
			if dt < 0 {
				dt = 0
			}
			dts[i] = float32(dt)
		}
		x := tp.Concat3Cols(tp.Input(peerRows), tp.Input(feats), m.timeEnc.Forward(tp, dts))
		return cell.Forward(tp, x, tp.Input(memRows))
	}
	srcT := build(srcUpd, m.srcCell)
	dstT := build(dstUpd, m.dstCell)

	idx := make(map[tgraph.NodeID]int32, len(srcUpd)+len(dstUpd))
	var rows *nn.Tensor
	switch {
	case srcT != nil && dstT != nil:
		// Stack by overlaying both onto a zero base.
		base := tp.Input(tensor.New(len(srcUpd)+len(dstUpd), d))
		sRows := make([]int32, len(srcUpd))
		for i := range srcUpd {
			sRows[i] = int32(i)
		}
		dRows := make([]int32, len(dstUpd))
		for i := range dstUpd {
			dRows[i] = int32(len(srcUpd) + i)
		}
		rows = tp.OverlayRows(tp.OverlayRows(base, srcT, sRows), dstT, dRows)
	case srcT != nil:
		rows = srcT
	default:
		rows = dstT
	}
	for i, n := range srcUpd {
		idx[n] = int32(i)
	}
	for i, n := range dstUpd {
		idx[n] = int32(len(srcUpd) + i)
	}
	return &Overlay{Rows: rows, IndexOf: idx}
}

func (m *JODIE) commitMemory(ov *Overlay, events []tgraph.Event) {
	if ov != nil {
		for n, i := range ov.IndexOf {
			m.mem.Set(n, ov.Rows.Value().Row(int(i)), m.pending[n].t)
			delete(m.pending, n)
			delete(m.pendSrc, n)
		}
	}
	for i := range events {
		ev := &events[i]
		if m.mem.Touched(ev.Src) {
			m.observeDt(ev.Time - m.mem.LastTime(ev.Src))
		}
		if m.mem.Touched(ev.Dst) {
			m.observeDt(ev.Time - m.mem.LastTime(ev.Dst))
		}
		m.pending[ev.Src] = pendingEvent{peer: ev.Dst, feat: ev.Feat, t: ev.Time}
		m.pendSrc[ev.Src] = true
		m.pending[ev.Dst] = pendingEvent{peer: ev.Src, feat: ev.Feat, t: ev.Time}
		m.pendSrc[ev.Dst] = false
	}
}

// repr is JODIE's embedding of a batch: memory with the pending recurrent
// updates applied, the sources projected forward to the event time.
func (m *JODIE) repr(tp *nn.Tape, p *core.Plan) (zsrc, zdst, zneg *nn.Tensor, ov *Overlay) {
	ov = m.updateMemory(tp, p.Nodes)
	// Base embedding: memory, with fresh on-tape rows where just updated.
	base := tp.Input(m.memRows(p.Nodes))
	if ov != nil {
		var rows, srcIdx []int32
		for i, n := range p.Nodes {
			if u, ok := ov.IndexOf[n]; ok {
				rows = append(rows, int32(i))
				srcIdx = append(srcIdx, u)
			}
		}
		base = tp.OverlayRows(base, tp.Gather(ov.Rows, srcIdx), rows)
	}
	// Projection: ẑ = (1 + Δt·w) ⊙ z, Δt since the node's last update.
	d := m.cfg.EdgeDim
	dtm := tensor.New(len(p.Nodes), d)
	for i, n := range p.Nodes {
		dt := m.normDt(p.Times[i] - m.mem.LastTime(n))
		row := dtm.Row(i)
		for j := range row {
			row[j] = dt
		}
	}
	factor := tp.AddConst(tp.MulRowVec(tp.Input(dtm), m.projW), 1)
	proj := tp.Mul(base, factor)
	return tp.Gather(proj, p.SrcRow), tp.Gather(base, p.DstRow), tp.Gather(base, p.NegRow), ov
}

func (m *JODIE) memRows(nodes []tgraph.NodeID) *tensor.Matrix {
	out := tensor.New(len(nodes), m.cfg.EdgeDim)
	for i, n := range nodes {
		copy(out.Row(i), m.mem.Get(n))
	}
	return out
}
