package baselines

import (
	"math/rand"

	"apan/internal/core"
	"apan/internal/gdb"
	"apan/internal/nn"
	"apan/internal/tgraph"
)

// TGATConfig configures the TGAT baseline.
type TGATConfig struct {
	NumNodes  int
	EdgeDim   int
	Layers    int // temporal attention layers (1 or 2 in the paper's figures)
	Fanout    int // sampled neighbors per hop (default 10)
	Heads     int // attention heads (default 2)
	Hidden    int // FFN hidden width (default 80)
	Dropout   float32
	LR        float32
	BatchSize int
	Seed      int64
}

func (c *TGATConfig) normalize() {
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
		c.LR = 1e-4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 200
	}
}

// TGAT is the synchronous CTDG baseline of Xu et al. (ICLR 2020): k-hop
// temporal graph attention with a harmonic time encoding, no node memory.
// Every inference must query the graph database for its temporal subgraph —
// the serial "graph querying then model inference" workflow of Fig. 2a.
type TGAT struct {
	streamer
	cfg   TGATConfig
	db    *gdb.DB
	stack *TemporalAttnStack
}

// NewTGAT builds a TGAT baseline over the given graph database.
func NewTGAT(cfg TGATConfig, db *gdb.DB) *TGAT {
	cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &TGAT{
		cfg:   cfg,
		db:    db,
		stack: NewTemporalAttnStack(cfg.EdgeDim, cfg.Layers, cfg.Fanout, cfg.Heads, cfg.Hidden, cfg.Dropout, db, rng),
	}
	m.streamer = streamer{
		rng: rng, dec: core.NewLinkDecoder(cfg.EdgeDim, cfg.Hidden, cfg.Dropout, rng),
		batchSize: cfg.BatchSize, numNodes: cfg.NumNodes, embed: m.repr, commit: m.apply,
	}
	m.params = m.Params()
	m.opt = nn.NewAdam(m.params, cfg.LR)
	return m
}

// Name identifies the model variant, e.g. "TGAT-2layers".
func (m *TGAT) Name() string {
	if m.cfg.Layers == 1 {
		return "TGAT-1layer"
	}
	return "TGAT-2layers"
}

// Params returns all trainable tensors.
func (m *TGAT) Params() []*nn.Tensor {
	return append(m.stack.Params(), m.dec.Params()...)
}

// DB exposes the graph database wrapper.
func (m *TGAT) DB() *gdb.DB { return m.db }

// ResetRuntime clears the temporal graph (TGAT keeps no other state).
func (m *TGAT) ResetRuntime() {
	m.db.G = tgraph.New(m.cfg.NumNodes)
	m.db.ResetStats()
	m.stack.SetDB(m.db)
}

// repr is TGAT's embedding of a batch: k-hop temporal attention over zero
// layer-0 features, queried from the graph database.
func (m *TGAT) repr(tp *nn.Tape, p *core.Plan) (zsrc, zdst, zneg *nn.Tensor, _ *Overlay) {
	z := m.stack.Reprs(tp, p.Nodes, p.Times, ZeroBase(m.cfg.EdgeDim), nil)
	return tp.Gather(z, p.SrcRow), tp.Gather(z, p.DstRow), tp.Gather(z, p.NegRow), nil
}

// apply inserts the scored batch into the temporal graph.
func (m *TGAT) apply(_ *Overlay, events []tgraph.Event) {
	for _, ev := range events {
		m.db.AddEvent(ev)
	}
}
