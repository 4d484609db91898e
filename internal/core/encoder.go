package core

import (
	"math/rand"
	"sync"

	"apan/internal/mailbox"
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

// EncodeInput is the per-batch input bundle read from the state and mailbox
// stores for a set of unique nodes.
type EncodeInput struct {
	Nodes  []tgraph.NodeID
	Times  []float64      // per-node query time (for the PositionalTime mode)
	ZPrev  *tensor.Matrix // B×d last embeddings z(t−), detached
	Mails  *tensor.Matrix // (B·m)×d sorted mailbox contents, detached
	DTs    []float32      // (B·m) time deltas t_now − t_mail (0 for empty slots)
	Counts []int          // valid mails per node
}

// ReadInputs gathers z(t−) and the timestamp-sorted mailboxes of nodes into
// a freshly allocated, zero-filled EncodeInput: the reference every reused
// gather (Model.GatherInputsInto, the inference workspace) is tested
// against. times[i] is the query time of nodes[i].
func ReadInputs(st *state.Store, mb *mailbox.Store, nodes []tgraph.NodeID, times []float64) *EncodeInput {
	b := len(nodes)
	d := st.Dim()
	m := mb.Slots()
	in := &EncodeInput{
		Nodes:  nodes,
		Times:  times,
		ZPrev:  tensor.New(b, d),
		Mails:  tensor.New(b*m, d),
		DTs:    make([]float32, b*m),
		Counts: make([]int, b),
	}
	gatherInto(st, mb, nodes, times, 1, in, make([]float64, m))
	return in
}

// gatherInto fills in from the stores. The caller owns every buffer: ZPrev
// (b×d), Mails ((b·m)×d), Counts (len b), DTs (len b·m, zeroed — only valid
// slots are written), and ts, the per-lane timestamp scratch of at least
// workers·m float64s. With workers > 1 the nodes are split into contiguous
// ranges, one goroutine each, filling disjoint rows, so the result equals
// the serial gather; small batches stay serial. This is the allocation-free
// core every gather shares.
func gatherInto(st *state.Store, mb *mailbox.Store, nodes []tgraph.NodeID, times []float64, workers int, in *EncodeInput, ts []float64) {
	b := len(nodes)
	m := mb.Slots()
	// gatherRange is a plain function (not a closure) so the serial path —
	// the zero-allocation serving configuration — builds no capture struct.
	if workers <= 1 || b < 2*workers {
		gatherRange(st, mb, nodes, times, in, ts[:m], 0, b)
		return
	}
	var wg sync.WaitGroup
	chunk := (b + workers - 1) / workers
	lane := 0
	for lo := 0; lo < b; lo += chunk {
		hi := lo + chunk
		if hi > b {
			hi = b
		}
		wg.Add(1)
		go func(lo, hi int, ts []float64) {
			defer wg.Done()
			gatherRange(st, mb, nodes, times, in, ts, lo, hi)
		}(lo, hi, ts[lane*m:(lane+1)*m])
		lane++
	}
	wg.Wait()
}

// gatherRange fills rows [lo, hi) of in; ts is this lane's scratch.
func gatherRange(st *state.Store, mb *mailbox.Store, nodes []tgraph.NodeID, times []float64, in *EncodeInput, ts []float64, lo, hi int) {
	d := st.Dim()
	m := mb.Slots()
	for i := lo; i < hi; i++ {
		n := nodes[i]
		st.CopyTo(n, in.ZPrev.Row(i))
		c := mb.ReadSorted(n, in.Mails.Data[i*m*d:(i+1)*m*d], ts)
		in.Counts[i] = c
		for s := 0; s < c; s++ {
			dt := times[i] - ts[s]
			if dt < 0 {
				dt = 0
			}
			in.DTs[i*m+s] = float32(dt)
		}
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
