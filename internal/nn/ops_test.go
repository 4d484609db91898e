package nn

import (
	"math/rand"
	"testing"

	"apan/internal/tensor"
)

// checkGrads runs one analytic backward pass via build, then compares every
// parameter gradient against central finite differences.
func checkGrads(t *testing.T, params []*Tensor, build func() (*Tape, *Tensor), tol float64) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	tp, loss := build()
	tp.Backward(loss)
	worst, err := GradCheck(params, func() float64 {
		_, l := build()
		return float64(l.W.Data[0])
	}, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if worst > tol {
		t.Fatalf("gradient check failed: worst relative error %v > %v", worst, tol)
	}
}

func randInput(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.New(r, c)
	m.RandN(rng, 0.5)
	return m
}

func TestGradMLPChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w1 := Param(4, 5)
	w1.W.XavierInit(rng)
	b1 := Param(1, 5)
	w2 := Param(5, 1)
	w2.W.XavierInit(rng)
	x := randInput(rng, 3, 4)
	targets := []float32{1, 0, 1}
	params := []*Tensor{w1, b1, w2}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		h := tp.ReLU(tp.Linear(tp.Input(x), w1, b1))
		logits := tp.MatMul(h, w2)
		return tp, tp.BCEWithLogits(logits, targets)
	}, 0.03)
}

func TestGradElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := Param(2, 3)
	w.W.RandN(rng, 0.5)
	params := []*Tensor{w}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		a := tp.Sigmoid(w)
		b := tp.Tanh(w)
		c := tp.Exp(tp.Scale(w, 0.3))
		d := tp.Square(w)
		sum := tp.Add(tp.Add(a, b), tp.Add(c, d))
		return tp, tp.MeanAll(sum)
	}, 0.03)
}

func TestGradSubMulAddConst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Param(2, 2)
	a.W.RandN(rng, 1)
	b := Param(2, 2)
	b.W.RandN(rng, 1)
	params := []*Tensor{a, b}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		out := tp.Mul(tp.Sub(a, b), tp.AddConst(tp.Scale(b, 0.5), 1))
		return tp, tp.SumAll(out)
	}, 0.03)
}

// TestGradConcatSlice checks the gradient through Concat3Cols, whose
// backward slices the upstream gradient back into its three operands.
func TestGradConcatSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Param(3, 2)
	a.W.RandN(rng, 1)
	b := Param(3, 3)
	b.W.RandN(rng, 1)
	c := Param(3, 2)
	c.W.RandN(rng, 1)
	params := []*Tensor{a, b, c}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		cat := tp.Concat3Cols(a, b, c)
		return tp, tp.MeanAll(tp.Square(cat))
	}, 0.03)
}

func TestGradMulRowVecAndLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := Param(3, 5)
	a.W.RandN(rng, 1)
	m := Param(5, 4)
	m.W.RandN(rng, 1)
	v := Param(1, 4)
	v.W.RandN(rng, 1)
	w := Param(1, 4)
	w.W.RandN(rng, 1)
	params := []*Tensor{a, m, v, w}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		out := tp.MulRowVec(tp.Linear(a, m, w), v)
		return tp, tp.MeanAll(tp.Square(out))
	}, 0.03)
}

func TestGradOverlayRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := Param(4, 3)
	base.W.RandN(rng, 1)
	overlay := Param(2, 3)
	overlay.W.RandN(rng, 1)
	params := []*Tensor{base, overlay}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		out := tp.OverlayRows(base, overlay, []int32{1, 3})
		return tp, tp.MeanAll(tp.Square(out))
	}, 0.03)
}

func TestOverlayRowsValuesAndDuplicates(t *testing.T) {
	tp := NewTape()
	base := tp.Input(tensor.FromSlice(3, 2, []float32{1, 1, 2, 2, 3, 3}))
	ov := Param(2, 2)
	ov.W.CopyFrom(tensor.FromSlice(2, 2, []float32{7, 7, 9, 9}))
	out := tp.OverlayRows(base, ov, []int32{1, 1}) // duplicate target row
	if out.W.At(1, 0) != 9 {
		t.Fatalf("last overlay write must win: %v", out.W.Data)
	}
	if out.W.At(0, 0) != 1 || out.W.At(2, 1) != 3 {
		t.Fatalf("base rows disturbed: %v", out.W.Data)
	}
	loss := tp.SumAll(out)
	tp.Backward(loss)
	// Only the winning overlay row receives gradient.
	if ov.G.At(0, 0) != 0 || ov.G.At(1, 0) != 1 {
		t.Fatalf("overlay grads: %v", ov.G.Data)
	}
}

func TestGradAddRowsTiled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := Param(6, 3) // 2 blocks of 3 slots
	x.W.RandN(rng, 1)
	p := Param(3, 3)
	p.W.RandN(rng, 1)
	params := []*Tensor{x, p}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		return tp, tp.MeanAll(tp.Square(tp.AddRowsTiled(x, p)))
	}, 0.03)
}

func TestGradGather(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	table := Param(5, 3)
	table.W.RandN(rng, 1)
	idx := []int32{0, 2, 2, 4}
	params := []*Tensor{table}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		return tp, tp.MeanAll(tp.Square(tp.Gather(table, idx)))
	}, 0.03)
}

func TestGradSegmentMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := Param(5, 3)
	x.W.RandN(rng, 1)
	segs := []int32{0, 0, 1, 2, 2}
	params := []*Tensor{x}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		return tp, tp.MeanAll(tp.Square(tp.SegmentMean(x, segs, 4)))
	}, 0.03)
}

func TestSegmentMeanEmptySegmentIsZero(t *testing.T) {
	tp := NewTape()
	x := tp.Input(tensor.FromSlice(2, 2, []float32{1, 2, 3, 4}))
	out := tp.SegmentMean(x, []int32{0, 2}, 3)
	for _, v := range out.W.Row(1) {
		if v != 0 {
			t.Fatalf("empty segment not zero: %v", out.W.Data)
		}
	}
	if out.W.At(0, 0) != 1 || out.W.At(2, 1) != 4 {
		t.Fatalf("segment values wrong: %v", out.W.Data)
	}
}

func TestGradRowDot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := Param(4, 3)
	a.W.RandN(rng, 1)
	b := Param(4, 3)
	b.W.RandN(rng, 1)
	params := []*Tensor{a, b}
	targets := []float32{1, 0, 1, 0}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		return tp, tp.BCEWithLogits(tp.RowDot(a, b), targets)
	}, 0.03)
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := Param(3, 6)
	x.W.RandN(rng, 1)
	g := Param(1, 6)
	g.W.Fill(1.2)
	b := Param(1, 6)
	b.W.RandN(rng, 0.1)
	params := []*Tensor{x, g, b}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		return tp, tp.MeanAll(tp.Square(tp.LayerNormOp(x, g, b)))
	}, 0.05)
}

func TestLayerNormRowStats(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tp := NewTape()
	x := tp.Input(randInput(rng, 4, 16))
	g := Param(1, 16)
	g.W.Fill(1)
	b := Param(1, 16)
	out := tp.LayerNormOp(x, g, b)
	for r := 0; r < 4; r++ {
		var mean float32
		row := out.W.Row(r)
		for _, v := range row {
			mean += v
		}
		mean /= 16
		if mean > 1e-4 || mean < -1e-4 {
			t.Fatalf("row %d mean %v", r, mean)
		}
		var vr float32
		for _, v := range row {
			vr += (v - mean) * (v - mean)
		}
		vr /= 16
		if vr < 0.9 || vr > 1.1 {
			t.Fatalf("row %d variance %v", r, vr)
		}
	}
}

func TestGradMaskedMHA(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const bsz, slots, d = 3, 4, 6
	q := Param(bsz, d)
	q.W.RandN(rng, 0.7)
	k := Param(bsz*slots, d)
	k.W.RandN(rng, 0.7)
	v := Param(bsz*slots, d)
	v.W.RandN(rng, 0.7)
	counts := []int{4, 2, 0} // includes a fully masked query
	params := []*Tensor{q, k, v}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		att := tp.MaskedMHA(q, k, v, 2, counts)
		return tp, tp.MeanAll(tp.Square(att.Out))
	}, 0.05)
}

func TestMaskedMHAProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const bsz, slots, d, heads = 2, 3, 4, 2
	tp := NewTape()
	q := tp.Input(randInput(rng, bsz, d))
	k := tp.Input(randInput(rng, bsz*slots, d))
	v := tp.Input(randInput(rng, bsz*slots, d))
	att := tp.MaskedMHA(q, k, v, heads, []int{3, 0})

	// Weights over valid slots sum to 1 per head.
	for h := 0; h < heads; h++ {
		var sum float32
		for i := 0; i < 3; i++ {
			w := att.Weight(0, h, i)
			if w < 0 || w > 1 {
				t.Fatalf("weight out of range: %v", w)
			}
			sum += w
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("head %d weights sum %v", h, sum)
		}
	}
	// Fully masked query produces a zero row.
	for _, x := range att.Out.W.Row(1) {
		if x != 0 {
			t.Fatalf("masked query output not zero: %v", att.Out.W.Row(1))
		}
	}
}

func TestGradTimeEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	omega := Param(1, 5)
	omega.W.RandN(rng, 1)
	phi := Param(1, 5)
	phi.W.RandN(rng, 1)
	dts := []float32{0.1, 0.5, 2.0}
	params := []*Tensor{omega, phi}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		return tp, tp.MeanAll(tp.Square(tp.TimeEncode(dts, omega, phi)))
	}, 0.03)
}

func TestGradGRUCell(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cell := NewGRUCell(3, 4, rng)
	x := randInput(rng, 2, 3)
	h := randInput(rng, 2, 4)
	params := cell.Params()

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		out := cell.Forward(tp, tp.Input(x), tp.Input(h))
		return tp, tp.MeanAll(tp.Square(out))
	}, 0.05)
}

func TestGradMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	w := Param(2, 3)
	w.W.RandN(rng, 1)
	target := randInput(rng, 2, 3)
	params := []*Tensor{w}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		return tp, tp.MeanAll(tp.Square(tp.Sub(tp.Tanh(w), tp.Input(target))))
	}, 0.03)
}

func TestDropoutModes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := randInput(rng, 10, 10)

	// Inference tape: identity.
	tp := NewTape()
	in := tp.Input(x)
	if got := tp.Dropout(in, 0.5); got != in {
		t.Fatal("inference dropout must be identity")
	}

	// Training tape: some elements zeroed, survivors scaled.
	ttp := NewTrainingTape(rand.New(rand.NewSource(1)))
	out := ttp.Dropout(ttp.Input(x), 0.5)
	zeros, scaled := 0, 0
	for i, v := range out.W.Data {
		switch {
		case v == 0:
			zeros++
		case almost(v, x.Data[i]*2, 1e-5):
			scaled++
		default:
			t.Fatalf("unexpected dropout value %v (input %v)", v, x.Data[i])
		}
	}
	if zeros == 0 || scaled == 0 {
		t.Fatalf("dropout did not mix: %d zero, %d scaled", zeros, scaled)
	}
}

func almost(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	x := tp.Input(tensor.New(2, 2))
	tp.Backward(tp.Square(x))
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - c||² ; Adam should approach c.
	w := Param(1, 3)
	w.W.Fill(5)
	c := tensor.FromSlice(1, 3, []float32{1, -2, 0.5})
	opt := NewAdam([]*Tensor{w}, 0.05)
	for i := 0; i < 2000; i++ {
		opt.ZeroGrad()
		tp := NewTape()
		loss := tp.MeanAll(tp.Square(tp.Sub(w, tp.Input(c))))
		tp.Backward(loss)
		opt.Step()
	}
	for j, want := range c.Data {
		if !almost(w.W.Data[j], want, 0.05) {
			t.Fatalf("Adam did not converge: w[%d]=%v want %v", j, w.W.Data[j], want)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	w := Param(1, 4)
	w.G.Fill(3) // norm 6
	norm := ClipGradNorm([]*Tensor{w}, 3)
	if norm < 5.99 || norm > 6.01 {
		t.Fatalf("pre-clip norm %v", norm)
	}
	var total float64
	for _, v := range w.G.Data {
		total += float64(v) * float64(v)
	}
	if total > 9.01 {
		t.Fatalf("clip failed, norm² %v", total)
	}
	// Below threshold: untouched.
	w2 := Param(1, 2)
	w2.G.Fill(1)
	ClipGradNorm([]*Tensor{w2}, 10)
	if w2.G.Data[0] != 1 {
		t.Fatal("clip should not rescale small grads")
	}
}

func TestDeadBranchesGetNoGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	used := Param(2, 2)
	used.W.RandN(rng, 1)
	unused := Param(2, 2)
	unused.W.RandN(rng, 1)
	tp := NewTape()
	_ = tp.Square(unused) // recorded but not part of the loss
	loss := tp.MeanAll(tp.Square(used))
	tp.Backward(loss)
	if used.G.Norm2() == 0 {
		t.Fatal("used param should have gradient")
	}
	if unused.G.Norm2() != 0 {
		t.Fatal("unused param should have no gradient")
	}
}

func TestGradEncoderComposite(t *testing.T) {
	// Full APAN-encoder-shaped chain: positions + attention + residual +
	// layer norm + MLP, gradients through every module.
	rng := rand.New(rand.NewSource(18))
	const bsz, slots, d = 2, 3, 4
	attn := NewMultiHeadAttention(d, 2, rng)
	pos := NewPositionTable(slots, d, rng)
	ln := NewLayerNorm(d)
	mlp := NewMLP(d, 5, d, 0, rng)
	params := CollectParams(attn, pos, ln, mlp)

	z := randInput(rng, bsz, d)
	mails := randInput(rng, bsz*slots, d)
	counts := []int{3, 1}
	targets := []float32{1, 0}

	checkGrads(t, params, func() (*Tape, *Tensor) {
		tp := NewTape()
		zt := tp.Input(z)
		mb := pos.Forward(tp, tp.Input(mails))
		attOut, _ := attn.Forward(tp, zt, mb, counts)
		res := tp.Add(attOut, zt)
		emb := mlp.Forward(tp, ln.Forward(tp, res))
		logits := tp.RowDot(emb, zt)
		return tp, tp.BCEWithLogits(logits, targets)
	}, 0.06)
}
