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

// TGNConfig configures the TGN baseline.
type TGNConfig struct {
	NumNodes  int
	EdgeDim   int
	Layers    int // attention layers in the embedding module
	Fanout    int
	Heads     int
	Hidden    int
	Dropout   float32
	LR        float32
	BatchSize int
	Seed      int64
}

func (c *TGNConfig) normalize() {
	if c.Layers == 0 {
		c.Layers = 1
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
		c.LR = 1e-4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 200
	}
}

// pendingEvent is the most recent interaction of a node whose memory update
// has not been applied yet. TGN applies updates lazily at the start of the
// next batch that touches the node, so the GRU receives gradients from the
// link-prediction loss (Rossi et al., 2020 §3.2, "memory update at the
// start of the batch").
type pendingEvent struct {
	peer tgraph.NodeID
	feat []float32
	t    float64
}

// TGN is Temporal Graph Networks (Rossi et al., 2020): a GRU node memory
// driven by interaction messages plus a temporal-attention embedding module.
// Like TGAT it must query the graph database on the inference critical path.
type TGN struct {
	streamer
	cfg     TGNConfig
	db      *gdb.DB
	stack   *TemporalAttnStack
	gru     *nn.GRUCell // input [mem_peer ‖ e ‖ Φ(Δt)] (3d), hidden d
	msgTime *nn.TimeEncoder
	mem     *state.Store
	pending map[tgraph.NodeID]pendingEvent
}

// NewTGN builds a TGN baseline over the given graph database.
func NewTGN(cfg TGNConfig, db *gdb.DB) *TGN {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.EdgeDim
	m := &TGN{
		cfg:   cfg,
		db:    db,
		stack: NewTemporalAttnStack(d, cfg.Layers, cfg.Fanout, cfg.Heads, cfg.Hidden, cfg.Dropout, db, rng),
	}
	m.streamer = streamer{
		rng: rng, dec: core.NewLinkDecoder(d, cfg.Hidden, cfg.Dropout, rng),
		batchSize: cfg.BatchSize, numNodes: cfg.NumNodes, embed: m.repr, commit: m.apply,
	}
	m.gru = nn.NewGRUCell(3*d, d, rng)
	m.msgTime = nn.NewTimeEncoder(d, rng)
	m.mem = state.New(cfg.NumNodes, 0, d)
	m.pending = make(map[tgraph.NodeID]pendingEvent)
	m.params = m.Params()
	m.opt = nn.NewAdam(m.params, cfg.LR)
	return m
}

// Name identifies the model variant, e.g. "TGN-1layer".
func (m *TGN) Name() string {
	if m.cfg.Layers == 1 {
		return "TGN-1layer"
	}
	return "TGN-2layers"
}

// Params returns all trainable tensors.
func (m *TGN) Params() []*nn.Tensor {
	ps := append(m.stack.Params(), m.dec.Params()...)
	ps = append(ps, m.gru.Params()...)
	return append(ps, m.msgTime.Params()...)
}

// DB exposes the graph database wrapper.
func (m *TGN) DB() *gdb.DB { return m.db }

// ResetRuntime clears memory, pending messages and the temporal graph.
func (m *TGN) ResetRuntime() {
	m.mem.Reset()
	m.pending = make(map[tgraph.NodeID]pendingEvent)
	m.db.G = tgraph.New(m.cfg.NumNodes)
	m.db.ResetStats()
	m.stack.SetDB(m.db)
}

// memBase reads detached memory rows for the attention stack.
func (m *TGN) memBase(nodes []tgraph.NodeID, _ []float64) *tensor.Matrix {
	out := tensor.New(len(nodes), m.cfg.EdgeDim)
	for i, n := range nodes {
		copy(out.Row(i), m.mem.Get(n))
	}
	return out
}

// updateMemory applies pending messages for the batch nodes on tape,
// returning the overlay of fresh memory rows (or nil when nothing pending).
func (m *TGN) updateMemory(tp *nn.Tape, nodes []tgraph.NodeID) *Overlay {
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
	peerRows := tensor.New(len(upd), d)
	feats := tensor.New(len(upd), d)
	dts := make([]float32, len(upd))
	idx := make(map[tgraph.NodeID]int32, len(upd))
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
		idx[n] = int32(i)
	}
	x := tp.Concat3Cols(tp.Input(peerRows), tp.Input(feats), m.msgTime.Forward(tp, dts))
	newMem := m.gru.Forward(tp, x, tp.Input(memRows))
	return &Overlay{Rows: newMem, IndexOf: idx}
}

// commitMemory writes the overlay's values back to the store and records the
// new pending events of this batch.
func (m *TGN) commitMemory(ov *Overlay, events []tgraph.Event) {
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

// repr is TGN's embedding of a batch: the pending memory updates of its
// nodes, then temporal attention over the (updated) memory.
func (m *TGN) repr(tp *nn.Tape, p *core.Plan) (zsrc, zdst, zneg *nn.Tensor, ov *Overlay) {
	ov = m.updateMemory(tp, p.Nodes)
	z := m.stack.Reprs(tp, p.Nodes, p.Times, m.memBase, ov)
	return tp.Gather(z, p.SrcRow), tp.Gather(z, p.DstRow), tp.Gather(z, p.NegRow), ov
}

// apply commits the memory updates, queues the batch's own and inserts it
// into the temporal graph.
func (m *TGN) apply(ov *Overlay, events []tgraph.Event) {
	m.commitMemory(ov, events)
	for _, ev := range events {
		m.db.AddEvent(ev)
	}
}
