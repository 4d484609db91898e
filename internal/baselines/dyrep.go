package baselines

import (
	"math/rand"

	"apan/internal/core"
	"apan/internal/gdb"
	"apan/internal/nn"
	"apan/internal/state"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// DyRepConfig configures the DyRep baseline.
type DyRepConfig struct {
	NumNodes  int
	EdgeDim   int
	Fanout    int // neighbors aggregated for the localized message
	Hidden    int
	Dropout   float32
	LR        float32
	BatchSize int
	Seed      int64
}

func (c *DyRepConfig) normalize() {
	if c.Fanout == 0 {
		c.Fanout = 10
	}
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

// DyRep is Trivedi et al. (ICLR 2019): a recurrent node memory whose update
// message carries *localized embedding propagation* — the aggregated memory
// of the interaction partner's temporal neighborhood — with an identity
// readout (the embedding is the memory itself).
type DyRep struct {
	streamer
	cfg     DyRepConfig
	db      *gdb.DB
	gru     *nn.GRUCell // input [agg(peer nbrs) ‖ e ‖ Φ(Δt)] (3d), hidden d
	timeEnc *nn.TimeEncoder
	mem     *state.Store
	pending map[tgraph.NodeID]pendingEvent
}

// NewDyRep builds a DyRep baseline over the given graph database.
func NewDyRep(cfg DyRepConfig, db *gdb.DB) *DyRep {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.EdgeDim
	m := &DyRep{
		cfg:     cfg,
		db:      db,
		gru:     nn.NewGRUCell(3*d, d, rng),
		timeEnc: nn.NewTimeEncoder(d, rng),
		mem:     state.New(cfg.NumNodes, d),
		pending: make(map[tgraph.NodeID]pendingEvent),
	}
	m.streamer = streamer{
		rng: rng, dec: core.NewLinkDecoder(d, cfg.Hidden, cfg.Dropout, rng),
		batchSize: cfg.BatchSize, numNodes: cfg.NumNodes, embed: m.repr, commit: m.apply,
	}
	m.params = m.Params()
	m.opt = nn.NewAdam(m.params, cfg.LR)
	return m
}

// Name identifies the model.
func (m *DyRep) Name() string { return "DyRep" }

// Params returns all trainable tensors.
func (m *DyRep) Params() []*nn.Tensor {
	ps := append(m.gru.Params(), m.timeEnc.Params()...)
	return append(ps, m.dec.Params()...)
}

// DB exposes the graph database wrapper.
func (m *DyRep) DB() *gdb.DB { return m.db }

// ResetRuntime clears memory, pending updates and the temporal graph.
func (m *DyRep) ResetRuntime() {
	m.mem.Reset()
	m.pending = make(map[tgraph.NodeID]pendingEvent)
	m.db.G = tgraph.New(m.cfg.NumNodes)
	m.db.ResetStats()
}

// aggPeer returns the mean memory of peer and its most-recent temporal
// neighbors at time t — DyRep's localized propagation term. This is a graph
// query on the critical path.
func (m *DyRep) aggPeer(peer tgraph.NodeID, t float64) []float32 {
	d := m.cfg.EdgeDim
	out := make([]float32, d)
	copy(out, m.mem.Get(peer))
	incs := m.db.MostRecentNeighbors(peer, t, m.cfg.Fanout, nil)
	for _, inc := range incs {
		tensor.Axpy(out, m.mem.Get(inc.Peer), 1)
	}
	inv := 1 / float32(len(incs)+1)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// updateMemory applies pending updates for the batch nodes on tape.
func (m *DyRep) updateMemory(tp *nn.Tape, nodes []tgraph.NodeID) *Overlay {
	var upd []tgraph.NodeID
	for _, n := range nodes {
		if _, ok := m.pending[n]; ok {
			upd = append(upd, n)
		}
	}
	if len(upd) == 0 {
		return nil
	}
	d := m.cfg.EdgeDim
	memRows := tensor.New(len(upd), d)
	aggRows := tensor.New(len(upd), d)
	feats := tensor.New(len(upd), d)
	dts := make([]float32, len(upd))
	idx := make(map[tgraph.NodeID]int32, len(upd))
	for i, n := range upd {
		pe := m.pending[n]
		copy(memRows.Row(i), m.mem.Get(n))
		copy(aggRows.Row(i), m.aggPeer(pe.peer, pe.t))
		copy(feats.Row(i), pe.feat)
		dt := pe.t - m.mem.LastTime(n)
		if dt < 0 {
			dt = 0
		}
		dts[i] = float32(dt)
		idx[n] = int32(i)
	}
	x := tp.Concat3Cols(tp.Input(aggRows), tp.Input(feats), m.timeEnc.Forward(tp, dts))
	newMem := m.gru.Forward(tp, x, tp.Input(memRows))
	return &Overlay{Rows: newMem, IndexOf: idx}
}

func (m *DyRep) commitMemory(ov *Overlay, events []tgraph.Event) {
	if ov != nil {
		for n, i := range ov.IndexOf {
			m.mem.Set(n, ov.Rows.Value().Row(int(i)), m.pending[n].t)
			delete(m.pending, n)
		}
	}
	for i := range events {
		ev := &events[i]
		m.pending[ev.Src] = pendingEvent{peer: ev.Dst, feat: ev.Feat, t: ev.Time}
		m.pending[ev.Dst] = pendingEvent{peer: ev.Src, feat: ev.Feat, t: ev.Time}
	}
}

// repr is DyRep's embedding of a batch: the memory itself, with the
// pending updates of its nodes applied on tape.
func (m *DyRep) repr(tp *nn.Tape, p *core.Plan) (zsrc, zdst, zneg *nn.Tensor, ov *Overlay) {
	ov = m.updateMemory(tp, p.Nodes)
	memRows := tensor.New(len(p.Nodes), m.cfg.EdgeDim)
	for i, n := range p.Nodes {
		copy(memRows.Row(i), m.mem.Get(n))
	}
	z := tp.Input(memRows)
	if ov != nil {
		var rows, srcIdx []int32
		for i, n := range p.Nodes {
			if u, ok := ov.IndexOf[n]; ok {
				rows = append(rows, int32(i))
				srcIdx = append(srcIdx, u)
			}
		}
		z = tp.OverlayRows(z, tp.Gather(ov.Rows, srcIdx), rows)
	}
	return tp.Gather(z, p.SrcRow), tp.Gather(z, p.DstRow), tp.Gather(z, p.NegRow), ov
}

// apply commits the memory updates, queues the batch's own and inserts it
// into the temporal graph.
func (m *DyRep) apply(ov *Overlay, events []tgraph.Event) {
	m.commitMemory(ov, events)
	for _, ev := range events {
		m.db.AddEvent(ev)
	}
}
