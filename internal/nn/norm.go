package nn

import (
	"fmt"

	"apan/internal/tensor"
)

const layerNormEps = 1e-5

// LayerNormOp normalizes each row of x to zero mean and unit variance, then
// applies the learned per-column gain g and bias b (both 1×cols), following
// Ba et al. (2016) as used in the APAN encoder (paper eq. 5).
func (tp *Tape) LayerNormOp(x, g, b *Tensor) *Tensor {
	d := x.W.Cols
	if g.W.Rows != 1 || g.W.Cols != d || b.W.Rows != 1 || b.W.Cols != d {
		panic(fmt.Sprintf("nn: LayerNorm gain/bias must be 1x%d", d))
	}
	out := tp.newResultRaw(x.W.Rows, d, x, g, b)

	// xhat and invStd are caches for the backward pass; inference tapes
	// skip them entirely and compute the normalized value inline.
	var xhat *tensor.Matrix
	var invStd []float32
	if out.needGrad {
		xhat = tp.newMatrix(x.W.Rows, d)
		invStd = tp.scratch(x.W.Rows)
	}

	// The per-row mean/variance/normalize loop is the fused LayerNormRow
	// kernel.
	for r := 0; r < x.W.Rows; r++ {
		row := x.W.Row(r)
		o := out.W.Row(r)
		if out.needGrad {
			invStd[r] = tensor.LayerNormRow(o, xhat.Row(r), row, g.W.Data, b.W.Data, layerNormEps)
		} else {
			tensor.LayerNormRow(o, nil, row, g.W.Data, b.W.Data, layerNormEps)
		}
	}

	if out.needGrad {
		// f1 is the dx̂ backward scratch, one row-width buffer reused across
		// rows (fully rewritten per row; see backward.go).
		out.op, out.a, out.b, out.c = opLayerNorm, x, g, b
		out.aux, out.f0, out.f1 = xhat, invStd, tp.scratch(d)
	}
	return tp.record(out)
}
