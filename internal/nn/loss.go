package nn

import (
	"fmt"

	"apan/internal/tensor"
)

// BCEWithLogits returns the mean binary cross-entropy between the n×1 logits
// and targets (each in [0,1]), computed in the numerically stable form
// max(x,0) − x·y + log(1+e^{−|x|}).
func (tp *Tape) BCEWithLogits(logits *Tensor, targets []float32) *Tensor {
	if logits.W.Cols != 1 || logits.W.Rows != len(targets) {
		panic(fmt.Sprintf("nn: BCEWithLogits logits %dx%d for %d targets", logits.W.Rows, logits.W.Cols, len(targets)))
	}
	n := len(targets)
	if n == 0 {
		panic("nn: BCEWithLogits with no targets")
	}
	out := tp.newResultRaw(1, 1, logits)
	var sum float32
	for i, y := range targets {
		x := logits.W.Data[i]
		ax := x
		mx := x
		if ax < 0 {
			ax = -ax
		}
		if mx < 0 {
			mx = 0
		}
		sum += mx - x*y + tensor.Log32(1+tensor.Exp32(-ax))
	}
	out.W.Data[0] = sum / float32(n)
	if out.needGrad {
		out.op, out.a, out.f0 = opBCE, logits, targets
	}
	return tp.record(out)
}

// Fill returns n copies of v in a buffer that lives until the tape's next
// Reset: constant loss targets, drawn from the pool on a pooled tape.
func (tp *Tape) Fill(n int, v float32) []float32 {
	s := tp.scratch(n)
	if v != 0 {
		for i := range s {
			s[i] = v
		}
	}
	return s
}
