package nn

import (
	"fmt"

	"apan/internal/tensor"
)

// Every op guards its backward-op recording behind out.needGrad: on
// inference tapes (nograd) no output ever needs gradients, so the operand
// stores are skipped entirely. The gradient rules themselves live in
// backward.go's stepBack switch, keyed by the opKind each op stamps here —
// encoding backward as data instead of a captured closure is what makes a
// warm pooled training pass allocation-free.

// MatMul returns a·b.
func (tp *Tape) MatMul(a, b *Tensor) *Tensor {
	out := tp.newResultRaw(a.W.Rows, b.W.Cols, a, b)
	tensor.MatMul(out.W, a.W, b.W)
	if out.needGrad {
		out.op, out.a, out.b = opMatMul, a, b
	}
	return tp.record(out)
}

// Linear returns x·w + b, the 1×cols row b broadcast over the rows: one op
// and one output matrix. The bias is added in place after the product —
// the float operations, and their order, of a MatMul followed by a separate
// row-vector add — so values and gradients keep their bits.
func (tp *Tape) Linear(x, w, b *Tensor) *Tensor {
	if b.W.Rows != 1 || b.W.Cols != w.W.Cols {
		panic(fmt.Sprintf("nn: Linear wants a 1x%d bias, got %dx%d", w.W.Cols, b.W.Rows, b.W.Cols))
	}
	out := tp.newResultRaw(x.W.Rows, w.W.Cols, x, w, b)
	tensor.MatMul(out.W, x.W, w.W)
	for r := 0; r < out.W.Rows; r++ {
		row := out.W.Row(r)
		for j, v := range b.W.Data {
			row[j] += v
		}
	}
	if out.needGrad {
		out.op, out.a, out.b, out.c = opLinear, x, w, b
	}
	return tp.record(out)
}

// Add returns a+b element-wise (same shape).
func (tp *Tape) Add(a, b *Tensor) *Tensor {
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a, b)
	tensor.AddScaledTo(out.W.Data, a.W.Data, b.W.Data, 1)
	if out.needGrad {
		out.op, out.a, out.b = opAdd, a, b
	}
	return tp.record(out)
}

// Sub returns a−b element-wise.
func (tp *Tape) Sub(a, b *Tensor) *Tensor {
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a, b)
	tensor.AddScaledTo(out.W.Data, a.W.Data, b.W.Data, -1)
	if out.needGrad {
		out.op, out.a, out.b = opSub, a, b
	}
	return tp.record(out)
}

// Mul returns a⊙b element-wise.
func (tp *Tape) Mul(a, b *Tensor) *Tensor {
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a, b)
	bd := b.W.Data
	for i, v := range a.W.Data {
		out.W.Data[i] = v * bd[i]
	}
	if out.needGrad {
		out.op, out.a, out.b = opMulElem, a, b
	}
	return tp.record(out)
}

// Scale returns s·a.
func (tp *Tape) Scale(a *Tensor, s float32) *Tensor {
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a)
	for i, v := range a.W.Data {
		out.W.Data[i] = v * s
	}
	if out.needGrad {
		out.op, out.a, out.sc = opScale, a, s
	}
	return tp.record(out)
}

// AddConst returns a+c element-wise.
func (tp *Tape) AddConst(a *Tensor, c float32) *Tensor {
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a)
	for i, v := range a.W.Data {
		out.W.Data[i] = v + c
	}
	if out.needGrad {
		out.op, out.a = opAddConst, a
	}
	return tp.record(out)
}

// ScalarAffine returns g·a + b element-wise, where g and b are 1×1 tensors
// broadcast over a — the calibrated-decoder head fused into one op (the
// Gather-broadcast formulation it replaces allocated an index slice and two
// intermediate matrices per call).
func (tp *Tape) ScalarAffine(a, g, b *Tensor) *Tensor {
	if g.W.Rows != 1 || g.W.Cols != 1 || b.W.Rows != 1 || b.W.Cols != 1 {
		panic(fmt.Sprintf("nn: ScalarAffine gain/bias must be 1x1, got %dx%d and %dx%d",
			g.W.Rows, g.W.Cols, b.W.Rows, b.W.Cols))
	}
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a, g, b)
	gv, bv := g.W.Data[0], b.W.Data[0]
	for i, v := range a.W.Data {
		out.W.Data[i] = v*gv + bv
	}
	if out.needGrad {
		out.op, out.a, out.b, out.c, out.sc = opScalarAffine, a, g, b, gv
	}
	return tp.record(out)
}

// MulRowVec broadcasts the 1×cols vector v multiplicatively across the rows
// of a: out[i][j] = a[i][j] · v[j].
func (tp *Tape) MulRowVec(a, v *Tensor) *Tensor {
	if v.W.Rows != 1 || v.W.Cols != a.W.Cols {
		panic(fmt.Sprintf("nn: MulRowVec wants 1x%d vector, got %dx%d", a.W.Cols, v.W.Rows, v.W.Cols))
	}
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a, v)
	for r := 0; r < a.W.Rows; r++ {
		dst := out.W.Row(r)
		src := a.W.Row(r)
		for j, m := range v.W.Data {
			dst[j] = src[j] * m
		}
	}
	if out.needGrad {
		out.op, out.a, out.b = opMulRowVec, a, v
	}
	return tp.record(out)
}

// AddRowsTiled adds the m×d matrix p to a (which must be (B·m)×d), repeating
// p for each block of m consecutive rows. Used for positional encoding of
// mailbox slots.
func (tp *Tape) AddRowsTiled(a, p *Tensor) *Tensor {
	m := p.W.Rows
	if a.W.Cols != p.W.Cols || a.W.Rows%m != 0 {
		panic(fmt.Sprintf("nn: AddRowsTiled %dx%d with tile %dx%d", a.W.Rows, a.W.Cols, p.W.Rows, p.W.Cols))
	}
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a, p)
	for r := 0; r < a.W.Rows; r++ {
		dst := out.W.Row(r)
		src := a.W.Row(r)
		pr := p.W.Row(r % m)
		for j := range dst {
			dst[j] = src[j] + pr[j]
		}
	}
	if out.needGrad {
		out.op, out.a, out.b = opAddRowsTiled, a, p
	}
	return tp.record(out)
}

// ConcatCols concatenates a and b column-wise (same row count).
func (tp *Tape) ConcatCols(a, b *Tensor) *Tensor {
	if a.W.Rows != b.W.Rows {
		panic(fmt.Sprintf("nn: ConcatCols rows %d vs %d", a.W.Rows, b.W.Rows))
	}
	ac, bc := a.W.Cols, b.W.Cols
	out := tp.newResultRaw(a.W.Rows, ac+bc, a, b)
	for r := 0; r < a.W.Rows; r++ {
		dst := out.W.Row(r)
		copy(dst[:ac], a.W.Row(r))
		copy(dst[ac:], b.W.Row(r))
	}
	if out.needGrad {
		out.op, out.a, out.b, out.i0 = opConcatCols, a, b, ac
	}
	return tp.record(out)
}

// Concat3Cols concatenates three tensors column-wise.
func (tp *Tape) Concat3Cols(a, b, c *Tensor) *Tensor {
	return tp.ConcatCols(tp.ConcatCols(a, b), c)
}

// ReLU returns max(a, 0) element-wise.
func (tp *Tape) ReLU(a *Tensor) *Tensor {
	out := tp.newResult(a.W.Rows, a.W.Cols, a)
	for i, v := range a.W.Data {
		if v > 0 {
			out.W.Data[i] = v
		}
	}
	if out.needGrad {
		out.op, out.a = opReLU, a
	}
	return tp.record(out)
}

// Sigmoid returns σ(a) element-wise.
func (tp *Tape) Sigmoid(a *Tensor) *Tensor {
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a)
	for i, v := range a.W.Data {
		out.W.Data[i] = tensor.Sigmoid32(v)
	}
	if out.needGrad {
		out.op, out.a = opSigmoid, a
	}
	return tp.record(out)
}

// Tanh returns tanh(a) element-wise.
func (tp *Tape) Tanh(a *Tensor) *Tensor {
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a)
	for i, v := range a.W.Data {
		out.W.Data[i] = tensor.Tanh32(v)
	}
	if out.needGrad {
		out.op, out.a = opTanh, a
	}
	return tp.record(out)
}

// Exp returns e^a element-wise.
func (tp *Tape) Exp(a *Tensor) *Tensor {
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a)
	for i, v := range a.W.Data {
		out.W.Data[i] = tensor.Exp32(v)
	}
	if out.needGrad {
		out.op, out.a = opExp, a
	}
	return tp.record(out)
}

// Square returns a² element-wise.
func (tp *Tape) Square(a *Tensor) *Tensor {
	out := tp.newResultRaw(a.W.Rows, a.W.Cols, a)
	for i, v := range a.W.Data {
		out.W.Data[i] = v * v
	}
	if out.needGrad {
		out.op, out.a = opSquare, a
	}
	return tp.record(out)
}

// Dropout zeroes each element with probability rate during training and
// scales survivors by 1/(1−rate). It is the identity on inference tapes.
func (tp *Tape) Dropout(a *Tensor, rate float32) *Tensor {
	if !tp.training || rate <= 0 {
		return a
	}
	if rate >= 1 {
		panic("nn: Dropout rate must be < 1")
	}
	keep := 1 - rate
	inv := 1 / keep
	mask := tp.scratch(len(a.W.Data))
	out := tp.newResult(a.W.Rows, a.W.Cols, a)
	for i, v := range a.W.Data {
		if tp.rng.Float32() < keep {
			mask[i] = inv
			out.W.Data[i] = v * inv
		}
	}
	if out.needGrad {
		out.op, out.a, out.f0 = opDropout, a, mask
	}
	return tp.record(out)
}

// SumAll reduces a to a 1×1 scalar by summation.
func (tp *Tape) SumAll(a *Tensor) *Tensor {
	out := tp.newResultRaw(1, 1, a)
	var s float32
	for _, v := range a.W.Data {
		s += v
	}
	out.W.Data[0] = s
	if out.needGrad {
		out.op, out.a = opSumAll, a
	}
	return tp.record(out)
}

// MeanAll reduces a to a 1×1 scalar by averaging.
func (tp *Tape) MeanAll(a *Tensor) *Tensor {
	n := len(a.W.Data)
	if n == 0 {
		panic("nn: MeanAll of empty tensor")
	}
	return tp.Scale(tp.SumAll(a), 1/float32(n))
}

// Gather selects rows of table by index, the embedding-lookup primitive.
// Backward scatter-adds into the table gradient.
func (tp *Tape) Gather(table *Tensor, idx []int32) *Tensor {
	out := tp.newResultRaw(len(idx), table.W.Cols, table)
	for r, id := range idx {
		copy(out.W.Row(r), table.W.Row(int(id)))
	}
	if out.needGrad {
		out.op, out.a, out.idx = opGather, table, idx
	}
	return tp.record(out)
}

// SegmentMean averages the rows of x that share a segment id. segOf[r] gives
// the segment of row r (must be in [0, numSeg)); empty segments produce zero
// rows. Used for mean-aggregation in GraphSAGE-style models.
func (tp *Tape) SegmentMean(x *Tensor, segOf []int32, numSeg int) *Tensor {
	if len(segOf) != x.W.Rows {
		panic(fmt.Sprintf("nn: SegmentMean %d rows, %d segment ids", x.W.Rows, len(segOf)))
	}
	counts := tp.scratch(numSeg)
	for _, s := range segOf {
		counts[s]++
	}
	out := tp.newResult(numSeg, x.W.Cols, x)
	for r, s := range segOf {
		tensor.Axpy(out.W.Row(int(s)), x.W.Row(r), 1)
	}
	for s := 0; s < numSeg; s++ {
		if counts[s] > 0 {
			row := out.W.Row(s)
			inv := 1 / counts[s]
			for j := range row {
				row[j] *= inv
			}
		}
	}
	if out.needGrad {
		out.op, out.a, out.idx, out.f0 = opSegmentMean, x, segOf, counts
	}
	return tp.record(out)
}

// OverlayRows returns a copy of base with row rows[i] replaced by row i of
// overlay. Gradients flow into both base (untouched rows) and overlay
// (replaced rows). Rows listed several times keep the last overlay write,
// and only that contribution receives gradient.
func (tp *Tape) OverlayRows(base, overlay *Tensor, rows []int32) *Tensor {
	if base.W.Cols != overlay.W.Cols {
		panic(fmt.Sprintf("nn: OverlayRows col mismatch %d vs %d", base.W.Cols, overlay.W.Cols))
	}
	if len(rows) != overlay.W.Rows {
		panic(fmt.Sprintf("nn: OverlayRows %d rows for %d overlay rows", len(rows), overlay.W.Rows))
	}
	out := tp.newResultRaw(base.W.Rows, base.W.Cols, base, overlay)
	out.W.CopyFrom(base.W)
	// winner[r] records which overlay row owns base row r (-1: base).
	winner := tp.scratchI32(base.W.Rows)
	for r := range winner {
		winner[r] = -1
	}
	for i, r := range rows {
		copy(out.W.Row(int(r)), overlay.W.Row(i))
		winner[r] = int32(i)
	}
	if out.needGrad {
		out.op, out.a, out.b, out.idx = opOverlayRows, base, overlay, winner
	}
	return tp.record(out)
}

// RowDot computes per-row inner products of a and b (same shape), producing
// an n×1 tensor of logits. Used by dot-product link decoders.
func (tp *Tape) RowDot(a, b *Tensor) *Tensor {
	if a.W.Rows != b.W.Rows || a.W.Cols != b.W.Cols {
		panic(fmt.Sprintf("nn: RowDot shape mismatch %dx%d vs %dx%d", a.W.Rows, a.W.Cols, b.W.Rows, b.W.Cols))
	}
	out := tp.newResultRaw(a.W.Rows, 1, a, b)
	for r := 0; r < a.W.Rows; r++ {
		out.W.Data[r] = tensor.Dot(a.W.Row(r), b.W.Row(r))
	}
	if out.needGrad {
		out.op, out.a, out.b = opRowDot, a, b
	}
	return tp.record(out)
}
