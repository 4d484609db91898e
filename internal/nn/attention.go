package nn

import (
	"fmt"

	"apan/internal/tensor"
)

// Attention is the result of a fused masked multi-head attention op. Weights
// holds the forward attention probabilities laid out as [query][head][slot]:
// the interpretability signal of paper §3.6, which core.Model.Explain reads
// from a one-node pass of its own.
type Attention struct {
	Out     *Tensor
	Weights []float32
	heads   int
	slots   int
}

// Weight returns the attention probability that query q's head h assigned to
// slot i.
func (a *Attention) Weight(q, h, i int) float32 {
	return a.Weights[(q*a.heads+h)*a.slots+i]
}

// Heads reports the head count of the recorded pass.
func (a *Attention) Heads() int { return a.heads }

// Slots reports the per-query slot count of the recorded pass.
func (a *Attention) Slots() int { return a.slots }

// MaskedMHA computes scaled dot-product multi-head attention where each of
// the B query rows attends over its own block of `slots` key/value rows.
//
//	q: B×d        queries
//	k: (B·slots)×d keys, row b·slots+i is slot i of query b
//	v: (B·slots)×d values, same layout
//	counts[b]: number of valid slots for query b (first counts[b] rows of the
//	block participate; the rest are masked out). A query with zero valid slots
//	yields a zero output row.
//
// d must be divisible by heads. The per-head outputs are concatenated, so a
// separate output projection should follow.
func (tp *Tape) MaskedMHA(q, k, v *Tensor, heads int, counts []int) *Attention {
	b := q.W.Rows
	d := q.W.Cols
	if d%heads != 0 {
		panic(fmt.Sprintf("nn: MaskedMHA dim %d not divisible by %d heads", d, heads))
	}
	if k.W.Cols != d || v.W.Cols != d {
		panic(fmt.Sprintf("nn: MaskedMHA key/value dim %d/%d, want %d", k.W.Cols, v.W.Cols, d))
	}
	if b == 0 {
		panic("nn: MaskedMHA with zero queries")
	}
	if k.W.Rows != v.W.Rows || k.W.Rows%b != 0 {
		panic(fmt.Sprintf("nn: MaskedMHA %d keys for %d queries", k.W.Rows, b))
	}
	slots := k.W.Rows / b
	if len(counts) != b {
		panic(fmt.Sprintf("nn: MaskedMHA %d counts for %d queries", len(counts), b))
	}
	dh := d / heads
	scale := 1 / tensor.Sqrt32(float32(dh))

	out := tp.newResult(b, d, q, k, v)
	// Pool-backed on pooled tapes: the weights live until Reset, so a
	// caller that keeps them (core.Model.Explain) copies them out first.
	weights := tp.scratch(b * heads * slots)

	for qi := 0; qi < b; qi++ {
		n := counts[qi]
		if n <= 0 {
			continue
		}
		if n > slots {
			panic(fmt.Sprintf("nn: MaskedMHA count %d exceeds %d slots", n, slots))
		}
		qrow := q.W.Row(qi)
		orow := out.W.Row(qi)
		for h := 0; h < heads; h++ {
			lo := h * dh
			qh := qrow[lo : lo+dh]
			w := weights[(qi*heads+h)*slots : (qi*heads+h)*slots+slots]
			// Scores over valid slots.
			for i := 0; i < n; i++ {
				kh := k.W.Row(qi*slots + i)[lo : lo+dh]
				w[i] = tensor.Dot(qh, kh) * scale
			}
			tensor.SoftmaxRow(w[:n])
			// Weighted value sum.
			oh := orow[lo : lo+dh]
			for i := 0; i < n; i++ {
				vh := v.W.Row(qi*slots + i)[lo : lo+dh]
				tensor.Axpy(oh, vh, w[i])
			}
		}
	}

	if out.needGrad {
		// dα scratch for the backward pass (one slot-wide buffer reused
		// across every (query, head) iteration; see backward.go).
		out.op, out.a, out.b, out.c = opMaskedMHA, q, k, v
		out.i0, out.i1, out.sc = heads, slots, scale
		out.f0, out.f1, out.cnts = weights, tp.scratch(slots), counts
	}
	tp.record(out)
	att := tp.newAttention()
	att.Out, att.Weights, att.heads, att.slots = out, weights, heads, slots
	return att
}
