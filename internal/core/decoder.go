package core

import (
	"math/rand"

	"apan/internal/nn"
)

// LinkDecoder scores candidate interactions from pairs of temporal
// embeddings. The default follows the training objective of eq. 7: a
// calibrated inner product σ(a·(z_iᵀz_j)+b) on projected embeddings, which
// learns matching far faster than an MLP on the concatenation; the MLP form
// of §3.4 is available as an option (and is what the downstream-task heads
// use).
type LinkDecoder struct {
	mlp   *nn.MLP // nil in dot mode
	proj  *nn.Linear
	scale *nn.Tensor // 1×1 calibration gain
	bias  *nn.Tensor // 1×1 calibration bias
}

// NewLinkDecoder builds the eq.-7 inner-product head over embedding dim d.
// A nil rng builds a storage-free shell to be bound to a ParamSet.
func NewLinkDecoder(d, hidden int, dropout float32, rng *rand.Rand) *LinkDecoder {
	if rng == nil {
		return &LinkDecoder{
			proj:  nn.NewLinear(d, d, nil),
			scale: nn.ParamShell(1, 1),
			bias:  nn.ParamShell(1, 1),
		}
	}
	dec := &LinkDecoder{
		proj:  nn.NewLinear(d, d, rng),
		scale: nn.Param(1, 1),
		bias:  nn.Param(1, 1),
	}
	dec.scale.W.Data[0] = 1
	return dec
}

// NewMLPLinkDecoder builds the §3.4 MLP([z_i ‖ z_j]) head.
func NewMLPLinkDecoder(d, hidden int, dropout float32, rng *rand.Rand) *LinkDecoder {
	return &LinkDecoder{mlp: nn.NewMLP(2*d, hidden, 1, dropout, rng)}
}

// Forward returns one logit per row pair.
func (dec *LinkDecoder) Forward(tp *nn.Tape, zi, zj *nn.Tensor) *nn.Tensor {
	if dec.mlp != nil {
		return dec.mlp.Forward(tp, tp.ConcatCols(zi, zj))
	}
	dots := tp.RowDot(dec.proj.Forward(tp, zi), dec.proj.Forward(tp, zj))
	// Fused scalar calibration: same arithmetic as the former broadcast
	// Gather+Mul+Add chain, without the per-call index slice and two
	// intermediate matrices.
	return tp.ScalarAffine(dots, dec.scale, dec.bias)
}

// Params returns the head's trainable tensors.
func (dec *LinkDecoder) Params() []*nn.Tensor {
	if dec.mlp != nil {
		return dec.mlp.Params()
	}
	return append(dec.proj.Params(), dec.scale, dec.bias)
}
