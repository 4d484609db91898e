package core

import (
	"math/rand"

	"apan/internal/nn"
	"apan/internal/state"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// Encoder is APAN's attention-based encoder (paper §3.3): positional
// encoding over the mailbox, multi-head attention with the last embedding
// z(t−) as query, residual connection, layer normalization, and an MLP that
// emits the new temporal embedding z(t).
type Encoder struct {
	cfg  Config
	attn *nn.MultiHeadAttention
	pos  *nn.PositionTable
	time *nn.TimeEncoder
	ln   *nn.LayerNorm
	mlp  *nn.MLP
}

// NewEncoder builds the encoder for cfg. A nil rng builds a storage-free
// shell (every parameter a nn.ParamShell) to be bound to a ParamSet.
func NewEncoder(cfg Config, rng *rand.Rand) *Encoder {
	d := cfg.EdgeDim
	ln := &nn.LayerNorm{Gain: nn.ParamShell(1, d), Bias: nn.ParamShell(1, d)}
	if rng != nil {
		ln = nn.NewLayerNorm(d)
	}
	e := &Encoder{
		cfg:  cfg,
		attn: nn.NewMultiHeadAttention(d, cfg.Heads, rng),
		ln:   ln,
		mlp:  nn.NewMLP(d, cfg.Hidden, d, cfg.Dropout, rng),
	}
	switch cfg.Positional {
	case PositionalLearned:
		e.pos = nn.NewPositionTable(cfg.Slots, d, rng)
	case PositionalTime:
		e.time = nn.NewTimeEncoder(d, rng)
	}
	return e
}

// Params returns the encoder's trainable tensors.
func (e *Encoder) Params() []*nn.Tensor {
	ps := nn.CollectParams(e.attn, e.ln, e.mlp)
	if e.pos != nil {
		ps = append(ps, e.pos.Params()...)
	}
	if e.time != nil {
		ps = append(ps, e.time.Params()...)
	}
	return ps
}

// EncodeInput is the per-batch input bundle read from the node store for a
// set of unique nodes.
type EncodeInput struct {
	Nodes  []tgraph.NodeID
	Times  []float64      // per-node query time (for the PositionalTime mode)
	ZPrev  *tensor.Matrix // B×d last embeddings z(t−), detached
	Mails  *tensor.Matrix // (B·m)×d sorted mailbox contents, detached
	DTs    []float32      // (B·m) time deltas t_now − t_mail (0 for empty slots)
	Counts []int          // valid mails per node
}

// ReadInputs gathers z(t−) and the timestamp-sorted mailboxes of nodes into
// a freshly allocated EncodeInput, with no locking: the allocating reference
// the model's reused gather (Model.GatherInputsInto) is tested against.
// times[i] is the query time of nodes[i].
func ReadInputs(st *state.Store, nodes []tgraph.NodeID, times []float64) *EncodeInput {
	b := len(nodes)
	d := st.Dim()
	m := st.Slots()
	in := &EncodeInput{
		Nodes:  nodes,
		Times:  times,
		ZPrev:  tensor.New(b, d),
		Mails:  tensor.New(b*m, d),
		DTs:    make([]float32, b*m),
		Counts: make([]int, b),
	}
	fillInputs(st, nodes, times, in, make([]float64, m))
	return in
}

// fillInputs fills in from the store, serially. The caller sizes every
// buffer: ZPrev b×d, Mails (b·m)×d, DTs b·m, Counts b, and ts, timestamp
// scratch of m float64s. Every slot is written: mail rows and time deltas
// past a node's count are zeroed.
func fillInputs(st *state.Store, nodes []tgraph.NodeID, times []float64, in *EncodeInput, ts []float64) {
	d := st.Dim()
	m := st.Slots()
	for i, n := range nodes {
		st.CopyTo(n, in.ZPrev.Row(i))
		mails, dts := in.Mails.Data[i*m*d:(i+1)*m*d], in.DTs[i*m:(i+1)*m]
		c := st.ReadSorted(n, mails, ts)
		in.Counts[i] = c
		for s := 0; s < c; s++ {
			dt := times[i] - ts[s]
			if dt < 0 {
				dt = 0
			}
			dts[s] = float32(dt)
		}
		clear(mails[c*d:])
		clear(dts[c:])
	}
}

// Forward computes z(t) for every node in the batch and returns the
// embedding tensor plus the attention record for interpretability.
func (e *Encoder) Forward(tp *nn.Tape, in *EncodeInput) (*nn.Tensor, *nn.Attention) {
	zPrev := tp.Input(in.ZPrev)
	mails := tp.Input(in.Mails)

	var kv *nn.Tensor
	switch {
	case e.pos != nil:
		kv = e.pos.Forward(tp, mails)
	case e.time != nil:
		kv = tp.Add(mails, e.time.Forward(tp, in.DTs))
	default:
		kv = mails
	}

	attOut, att := e.attn.Forward(tp, zPrev, kv, in.Counts)
	res := tp.Add(attOut, zPrev) // shortcut addition ⊕ (eq. 5)
	normed := e.ln.Forward(tp, res)
	z := e.mlp.Forward(tp, normed)
	return z, att
}
