package nn

import (
	"math"
	"math/rand"
	"testing"

	"apan/internal/tensor"
)

// TestLinearMatchesComposed: the fused Linear op is tensor.MatMul followed
// by a bias add, bit for bit — its value on every kind of tape, and the
// gradients of x, W and b against the same product and bias add recorded as
// two ops (MatMul, then Add of the bias gathered onto every row). Inner
// dimensions off a multiple of four and all-zero input rows, which the GEMM
// skips, are included.
func TestLinearMatchesComposed(t *testing.T) {
	for _, sh := range []struct{ rows, in, out int }{{5, 7, 3}, {9, 13, 6}, {4, 16, 8}, {1, 1, 1}, {12, 172, 5}} {
		rng := rand.New(rand.NewSource(int64(sh.rows*1000 + sh.in)))
		x, w, b := Param(sh.rows, sh.in), Param(sh.in, sh.out), Param(1, sh.out)
		x.W.RandN(rng, 1)
		w.W.RandN(rng, 1)
		b.W.RandN(rng, 1)
		for r := 1; r < sh.rows; r += 3 {
			clear(x.W.Row(r)) // the GEMM's skip path
		}
		upstream := randInput(rng, sh.rows, sh.out)

		want := tensor.New(sh.rows, sh.out)
		tensor.MatMul(want, x.W, w.W)
		for r := 0; r < sh.rows; r++ {
			row := want.Row(r)
			for j, v := range b.W.Data {
				row[j] += v
			}
		}

		zeros := make([]int32, sh.rows)
		composed := func(tp *Tape) *Tensor {
			return tp.Add(tp.MatMul(x, w), tp.Gather(b, zeros))
		}
		fused := func(tp *Tape) *Tensor { return tp.Linear(x, w, b) }
		tapes := []struct {
			name string
			tape func() *Tape
		}{
			{"plain", NewTape},
			{"training", func() *Tape { return NewTrainingTape(rand.New(rand.NewSource(1))) }},
			{"pooled", func() *Tape { return NewReusableTrainingTape(new(tensor.Pool), rand.New(rand.NewSource(1))) }},
		}
		for _, tc := range tapes {
			// grads runs one forward and backward and returns the value and
			// copies of the three gradients.
			grads := func(op func(*Tape) *Tensor) [4][]float32 {
				for _, p := range []*Tensor{x, w, b} {
					p.ZeroGrad()
				}
				tp := tc.tape()
				out := op(tp)
				tp.Backward(tp.SumAll(tp.Mul(out, tp.Input(upstream))))
				return [4][]float32{
					append([]float32(nil), out.W.Data...),
					append([]float32(nil), x.G.Data...),
					append([]float32(nil), w.G.Data...),
					append([]float32(nil), b.G.Data...),
				}
			}
			got, ref := grads(fused), grads(composed)
			for i, what := range []string{"value", "dx", "dW", "db"} {
				if i == 0 {
					sameBits(t, sh, tc.name+" "+what+" vs tensor.MatMul+bias", got[i], want.Data)
				}
				sameBits(t, sh, tc.name+" "+what, got[i], ref[i])
			}
		}

		tp := NewInferenceTape(new(tensor.Pool))
		for pass := 0; pass < 2; pass++ { // the second pass reuses dirty pool storage
			sameBits(t, sh, "inference value", tp.Linear(tp.Input(x.W), w, b).W.Data, want.Data)
			tp.Reset()
		}
	}
}

func sameBits(t *testing.T, sh any, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%+v %s: %d values, want %d", sh, what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%+v %s[%d] = %v (%08x), want %v (%08x)", sh, what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}
