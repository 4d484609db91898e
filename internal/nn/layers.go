package nn

import (
	"math"
	"math/rand"
)

// Layer is any module that exposes its trainable parameters.
type Layer interface {
	Params() []*Tensor
}

// CollectParams flattens the parameters of several layers.
func CollectParams(layers ...Layer) []*Tensor {
	var ps []*Tensor
	for _, l := range layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W *Tensor // in×out
	B *Tensor // 1×out
}

// NewLinear builds a Glorot-initialized in→out linear layer. A nil rng
// builds a storage-free shell to be bound to a ParamSet (see ParamShell).
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	if rng == nil {
		return &Linear{W: ParamShell(in, out), B: ParamShell(1, out)}
	}
	l := &Linear{W: Param(in, out), B: Param(1, out)}
	l.W.W.XavierInit(rng)
	return l
}

// Forward applies the layer on tape tp as one op (Tape.Linear).
func (l *Linear) Forward(tp *Tape, x *Tensor) *Tensor {
	return tp.Linear(x, l.W, l.B)
}

// Params returns the layer's trainable tensors.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// MLP is a two-layer feed-forward network with a ReLU hidden activation, the
// shape used throughout the paper (hidden size 80).
type MLP struct {
	L1, L2  *Linear
	Dropout float32
}

// NewMLP builds an in→hidden→out MLP.
func NewMLP(in, hidden, out int, dropout float32, rng *rand.Rand) *MLP {
	return &MLP{L1: NewLinear(in, hidden, rng), L2: NewLinear(hidden, out, rng), Dropout: dropout}
}

// Forward applies the MLP on tape tp.
func (m *MLP) Forward(tp *Tape, x *Tensor) *Tensor {
	h := tp.ReLU(m.L1.Forward(tp, x))
	h = tp.Dropout(h, m.Dropout)
	return m.L2.Forward(tp, h)
}

// Params returns the MLP's trainable tensors.
func (m *MLP) Params() []*Tensor { return append(m.L1.Params(), m.L2.Params()...) }

// LayerNorm is a learnable layer-normalization module.
type LayerNorm struct {
	Gain, Bias *Tensor
}

// NewLayerNorm builds a layer norm over dim columns with unit gain.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{Gain: Param(1, dim), Bias: Param(1, dim)}
	ln.Gain.W.Fill(1)
	return ln
}

// Forward normalizes each row of x.
func (ln *LayerNorm) Forward(tp *Tape, x *Tensor) *Tensor {
	return tp.LayerNormOp(x, ln.Gain, ln.Bias)
}

// Params returns the module's trainable tensors.
func (ln *LayerNorm) Params() []*Tensor { return []*Tensor{ln.Gain, ln.Bias} }

// MultiHeadAttention is the projected scaled dot-product attention block:
// Q=qW_Q, K=kW_K, V=vW_V, fused masked attention, then output projection W_O
// (paper eqs. 3–4).
type MultiHeadAttention struct {
	WQ, WK, WV, WO *Linear
	Heads          int
}

// NewMultiHeadAttention builds an attention block over model dimension dim.
func NewMultiHeadAttention(dim, heads int, rng *rand.Rand) *MultiHeadAttention {
	return &MultiHeadAttention{
		WQ:    NewLinear(dim, dim, rng),
		WK:    NewLinear(dim, dim, rng),
		WV:    NewLinear(dim, dim, rng),
		WO:    NewLinear(dim, dim, rng),
		Heads: heads,
	}
}

// Forward attends each query row over its block of key/value slots; counts
// masks invalid slots per query. It returns the projected output and the raw
// attention for interpretability.
func (a *MultiHeadAttention) Forward(tp *Tape, q, kv *Tensor, counts []int) (*Tensor, *Attention) {
	att := tp.MaskedMHA(a.WQ.Forward(tp, q), a.WK.Forward(tp, kv), a.WV.Forward(tp, kv), a.Heads, counts)
	return a.WO.Forward(tp, att.Out), att
}

// Params returns the block's trainable tensors.
func (a *MultiHeadAttention) Params() []*Tensor {
	return CollectParams(a.WQ, a.WK, a.WV, a.WO)
}

// PositionTable is the learned positional-encoding table P ∈ R^{slots×dim}
// added to the mailbox before attention (paper eq. 2).
type PositionTable struct {
	P *Tensor
}

// NewPositionTable builds a small-variance random position table. A nil rng
// builds a storage-free shell to be bound to a ParamSet.
func NewPositionTable(slots, dim int, rng *rand.Rand) *PositionTable {
	if rng == nil {
		return &PositionTable{P: ParamShell(slots, dim)}
	}
	pt := &PositionTable{P: Param(slots, dim)}
	pt.P.W.RandN(rng, 0.02)
	return pt
}

// Forward adds the table to each block of slots rows in x ((B·slots)×dim).
func (pt *PositionTable) Forward(tp *Tape, x *Tensor) *Tensor {
	return tp.AddRowsTiled(x, pt.P)
}

// Params returns the table parameter.
func (pt *PositionTable) Params() []*Tensor { return []*Tensor{pt.P} }

// TimeEncoder is the learnable harmonic time-embedding Φ(Δt)=cos(ωΔt+φ) used
// by TGAT/TGN and by APAN's PositionalTime mode.
type TimeEncoder struct {
	Omega, Phi *Tensor
}

// NewTimeEncoder builds a dim-dimensional time encoder with log-spaced
// initial frequencies, following the TGAT reference implementation. A nil
// rng builds a storage-free shell to be bound to a ParamSet.
func NewTimeEncoder(dim int, rng *rand.Rand) *TimeEncoder {
	if rng == nil {
		return &TimeEncoder{Omega: ParamShell(1, dim), Phi: ParamShell(1, dim)}
	}
	te := &TimeEncoder{Omega: Param(1, dim), Phi: Param(1, dim)}
	for j := 0; j < dim; j++ {
		// Frequencies 1/10^(j·9/dim) span ~[1, 1e-9]·(1+noise).
		te.Omega.W.Data[j] = float32(1.0 / math.Pow(10, float64(j)*9.0/float64(dim)))
	}
	te.Phi.W.RandN(rng, 0.1)
	return te
}

// Forward encodes the time deltas.
func (te *TimeEncoder) Forward(tp *Tape, dts []float32) *Tensor {
	return tp.TimeEncode(dts, te.Omega, te.Phi)
}

// Params returns the encoder's trainable tensors.
func (te *TimeEncoder) Params() []*Tensor { return []*Tensor{te.Omega, te.Phi} }

// GRUCell is a gated recurrent unit used by the TGN and JODIE baselines to
// update node memories.
type GRUCell struct {
	WxR, WhR *Linear
	WxZ, WhZ *Linear
	WxN, WhN *Linear
}

// NewGRUCell builds a GRU with input size in and hidden size hid.
func NewGRUCell(in, hid int, rng *rand.Rand) *GRUCell {
	return &GRUCell{
		WxR: NewLinear(in, hid, rng), WhR: NewLinear(hid, hid, rng),
		WxZ: NewLinear(in, hid, rng), WhZ: NewLinear(hid, hid, rng),
		WxN: NewLinear(in, hid, rng), WhN: NewLinear(hid, hid, rng),
	}
}

// Forward computes the next hidden state for each row of (x, h).
func (g *GRUCell) Forward(tp *Tape, x, h *Tensor) *Tensor {
	r := tp.Sigmoid(tp.Add(g.WxR.Forward(tp, x), g.WhR.Forward(tp, h)))
	z := tp.Sigmoid(tp.Add(g.WxZ.Forward(tp, x), g.WhZ.Forward(tp, h)))
	n := tp.Tanh(tp.Add(g.WxN.Forward(tp, x), tp.Mul(r, g.WhN.Forward(tp, h))))
	// h' = (1−z)⊙n + z⊙h
	oneMinusZ := tp.AddConst(tp.Scale(z, -1), 1)
	return tp.Add(tp.Mul(oneMinusZ, n), tp.Mul(z, h))
}

// Params returns the cell's trainable tensors.
func (g *GRUCell) Params() []*Tensor {
	return CollectParams(g.WxR, g.WhR, g.WxZ, g.WhZ, g.WxN, g.WhN)
}
