package nn

import "apan/internal/tensor"

// opKind identifies which operation produced a tensor, so Backward can
// dispatch its gradient rule through one switch instead of invoking a
// per-node closure. Every case in stepBack is a verbatim transcription of
// the closure it replaced — the float arithmetic and its order are
// unchanged, keeping training bit-exact with the closure-based tape.
type opKind uint8

const (
	opNone opKind = iota
	opMatMul
	opLinear
	opAdd
	opSub
	opMulElem
	opScale
	opAddConst
	opScalarAffine
	opMulRowVec
	opAddRowsTiled
	opConcatCols
	opReLU
	opSigmoid
	opTanh
	opExp
	opSquare
	opDropout
	opSumAll
	opGather
	opSegmentMean
	opOverlayRows
	opRowDot
	opMaskedMHA
	opLayerNorm
	opBCE
	opTimeEncode
	opSpMM
)

// stepBack accumulates the gradients of out's operands from out.G. Callers
// (Tape.Backward) guarantee out.op != opNone, out.needGrad, and out.G != nil.
func (tp *Tape) stepBack(out *Tensor) {
	switch out.op {
	case opLinear:
		// A row-vector add's bias rule, then the product's rule on the same
		// output gradient. The separate product's own gradient was 0 + dOut,
		// which is dOut bit for bit: every gradient accumulates from +0, so
		// none is ever −0.
		if v := out.c; v.needGrad {
			g := v.Grad().Data
			for r := 0; r < out.G.Rows; r++ {
				for j, gv := range out.G.Row(r) {
					g[j] += gv
				}
			}
		}
		tp.matMulBack(out.a, out.b, out.G)

	case opMatMul:
		tp.matMulBack(out.a, out.b, out.G)

	case opAdd:
		if out.a.needGrad {
			out.a.Grad().Add(out.G)
		}
		if out.b.needGrad {
			out.b.Grad().Add(out.G)
		}

	case opSub:
		if out.a.needGrad {
			out.a.Grad().Add(out.G)
		}
		if out.b.needGrad {
			out.b.Grad().AddScaled(out.G, -1)
		}

	case opMulElem:
		a, b := out.a, out.b
		if a.needGrad {
			g := a.Grad()
			for i, v := range out.G.Data {
				g.Data[i] += v * b.W.Data[i]
			}
		}
		if b.needGrad {
			g := b.Grad()
			for i, v := range out.G.Data {
				g.Data[i] += v * a.W.Data[i]
			}
		}

	case opScale:
		if out.a.needGrad {
			out.a.Grad().AddScaled(out.G, out.sc)
		}

	case opAddConst:
		if out.a.needGrad {
			out.a.Grad().Add(out.G)
		}

	case opScalarAffine:
		a, g, b := out.a, out.b, out.c
		gv := out.sc // gain value captured at forward time
		if a.needGrad {
			a.Grad().AddScaled(out.G, gv)
		}
		if g.needGrad {
			var s float32
			for i, v := range out.G.Data {
				s += v * a.W.Data[i]
			}
			g.Grad().Data[0] += s
		}
		if b.needGrad {
			var s float32
			for _, v := range out.G.Data {
				s += v
			}
			b.Grad().Data[0] += s
		}

	case opMulRowVec:
		a, v := out.a, out.b
		for r := 0; r < out.G.Rows; r++ {
			gr := out.G.Row(r)
			if a.needGrad {
				ag := a.Grad().Row(r)
				for j, gv := range gr {
					ag[j] += gv * v.W.Data[j]
				}
			}
			if v.needGrad {
				vg := v.Grad().Data
				ar := a.W.Row(r)
				for j, gv := range gr {
					vg[j] += gv * ar[j]
				}
			}
		}

	case opAddRowsTiled:
		a, p := out.a, out.b
		m := p.W.Rows
		if a.needGrad {
			a.Grad().Add(out.G)
		}
		if p.needGrad {
			pg := p.Grad()
			for r := 0; r < out.G.Rows; r++ {
				tensor.Axpy(pg.Row(r%m), out.G.Row(r), 1)
			}
		}

	case opConcatCols:
		a, b := out.a, out.b
		ac := out.i0
		for r := 0; r < out.G.Rows; r++ {
			src := out.G.Row(r)
			if a.needGrad {
				tensor.Axpy(a.Grad().Row(r), src[:ac], 1)
			}
			if b.needGrad {
				tensor.Axpy(b.Grad().Row(r), src[ac:], 1)
			}
		}

	case opReLU:
		a := out.a
		if a.needGrad {
			g := a.Grad()
			for i, v := range out.G.Data {
				if a.W.Data[i] > 0 {
					g.Data[i] += v
				}
			}
		}

	case opSigmoid:
		if out.a.needGrad {
			g := out.a.Grad()
			for i, v := range out.G.Data {
				s := out.W.Data[i]
				g.Data[i] += v * s * (1 - s)
			}
		}

	case opTanh:
		if out.a.needGrad {
			g := out.a.Grad()
			for i, v := range out.G.Data {
				t := out.W.Data[i]
				g.Data[i] += v * (1 - t*t)
			}
		}

	case opExp:
		if out.a.needGrad {
			g := out.a.Grad()
			for i, v := range out.G.Data {
				g.Data[i] += v * out.W.Data[i]
			}
		}

	case opSquare:
		a := out.a
		if a.needGrad {
			g := a.Grad()
			for i, v := range out.G.Data {
				g.Data[i] += 2 * v * a.W.Data[i]
			}
		}

	case opDropout:
		if out.a.needGrad {
			mask := out.f0
			g := out.a.Grad()
			for i, v := range out.G.Data {
				g.Data[i] += v * mask[i]
			}
		}

	case opSumAll:
		if out.a.needGrad {
			g := out.a.Grad()
			gv := out.G.Data[0]
			for i := range g.Data {
				g.Data[i] += gv
			}
		}

	case opGather:
		if out.a.needGrad {
			g := out.a.Grad()
			for r, id := range out.idx {
				tensor.Axpy(g.Row(int(id)), out.G.Row(r), 1)
			}
		}

	case opSegmentMean:
		if out.a.needGrad {
			counts := out.f0
			g := out.a.Grad()
			for r, s := range out.idx {
				tensor.Axpy(g.Row(r), out.G.Row(int(s)), 1/counts[s])
			}
		}

	case opOverlayRows:
		base, overlay := out.a, out.b
		winner := out.idx
		for r := 0; r < out.G.Rows; r++ {
			if w := winner[r]; w >= 0 {
				if overlay.needGrad {
					tensor.Axpy(overlay.Grad().Row(int(w)), out.G.Row(r), 1)
				}
			} else if base.needGrad {
				tensor.Axpy(base.Grad().Row(r), out.G.Row(r), 1)
			}
		}

	case opRowDot:
		a, b := out.a, out.b
		for r := 0; r < out.G.Rows; r++ {
			gv := out.G.Data[r]
			if a.needGrad {
				tensor.Axpy(a.Grad().Row(r), b.W.Row(r), gv)
			}
			if b.needGrad {
				tensor.Axpy(b.Grad().Row(r), a.W.Row(r), gv)
			}
		}

	case opMaskedMHA:
		q, k, v := out.a, out.b, out.c
		heads, slots := out.i0, out.i1
		scale := out.sc
		weights, dalpha := out.f0, out.f1
		counts := out.cnts
		b := q.W.Rows
		dh := q.W.Cols / heads
		for qi := 0; qi < b; qi++ {
			n := counts[qi]
			if n <= 0 {
				continue
			}
			qrow := q.W.Row(qi)
			grow := out.G.Row(qi)
			for h := 0; h < heads; h++ {
				lo := h * dh
				qh := qrow[lo : lo+dh]
				gh := grow[lo : lo+dh]
				w := weights[(qi*heads+h)*slots : (qi*heads+h)*slots+slots]
				// dα_i = gh·v_i ; ds_i = α_i (dα_i − Σ_j α_j dα_j).
				// dalpha is forward-drawn scratch: every entry [0,n) is
				// written before it is read, so reuse across (query, head)
				// iterations is exact.
				var dot float32
				for i := 0; i < n; i++ {
					vh := v.W.Row(qi*slots + i)[lo : lo+dh]
					dalpha[i] = tensor.Dot(gh, vh)
					dot += w[i] * dalpha[i]
				}
				for i := 0; i < n; i++ {
					ds := w[i] * (dalpha[i] - dot) * scale
					if q.needGrad {
						kh := k.W.Row(qi*slots + i)[lo : lo+dh]
						tensor.Axpy(q.Grad().Row(qi)[lo:lo+dh], kh, ds)
					}
					if k.needGrad {
						tensor.Axpy(k.Grad().Row(qi*slots + i)[lo:lo+dh], qh, ds)
					}
					if v.needGrad {
						tensor.Axpy(v.Grad().Row(qi*slots + i)[lo:lo+dh], gh, w[i])
					}
				}
			}
		}

	case opLayerNorm:
		x, g, b := out.a, out.b, out.c
		xhat := out.aux
		invStd := out.f0
		dxhat := out.f1
		d := x.W.Cols
		n := float32(d)
		for r := 0; r < out.G.Rows; r++ {
			gr := out.G.Row(r)
			xh := xhat.Row(r)
			if g.needGrad {
				gg := g.Grad().Data
				for j, gv := range gr {
					gg[j] += gv * xh[j]
				}
			}
			if b.needGrad {
				bg := b.Grad().Data
				for j, gv := range gr {
					bg[j] += gv
				}
			}
			if x.needGrad {
				// dxhat = dy ⊙ g; dx = invStd (dxhat − mean(dxhat) − xhat·mean(dxhat⊙xhat)).
				// dxhat is forward-drawn scratch, fully rewritten per row.
				var sum, sumXh float32
				for j, gv := range gr {
					dx := gv * g.W.Data[j]
					dxhat[j] = dx
					sum += dx
					sumXh += dx * xh[j]
				}
				mean := sum / n
				meanXh := sumXh / n
				xg := x.Grad().Row(r)
				is := invStd[r]
				for j, dx := range dxhat {
					xg[j] += is * (dx - mean - xh[j]*meanXh)
				}
			}
		}

	case opBCE:
		if out.a.needGrad {
			targets := out.f0
			logits := out.a
			g := logits.Grad()
			gv := out.G.Data[0] / float32(len(targets))
			for i, y := range targets {
				g.Data[i] += gv * (tensor.Sigmoid32(logits.W.Data[i]) - y)
			}
		}

	case opTimeEncode:
		omega, phi := out.a, out.b
		dts := out.f0
		og := omega.Grad()
		pg := phi.Grad()
		for i, dt := range dts {
			gr := out.G.Row(i)
			for j, gv := range gr {
				s := -tensor.Sin32(omega.W.Data[j]*dt+phi.W.Data[j]) * gv
				if omega.needGrad {
					og.Data[j] += s * dt
				}
				if phi.needGrad {
					pg.Data[j] += s
				}
			}
		}

	case opSpMM:
		if out.a.needGrad {
			x := out.a
			s := out.sp
			tmp := tensor.New(s.N, x.W.Cols)
			s.MulDense(tmp, out.G)
			x.Grad().Add(tmp)
		}
	}
}

// matMulBack is MatMul's rule: dA += dOut·Bᵀ and dB += Aᵀ·dOut.
func (tp *Tape) matMulBack(a, b *Tensor, dOut *tensor.Matrix) {
	if a.needGrad {
		// dA stays on MatMulBTAcc where MatMulAcc is the assembly too: a
		// transposed MatMulAcc is faster there but sums each element in
		// another order (docs/performance.md, "Training").
		tensor.MatMulBTAcc(a.Grad(), dOut, b.W) // dA += dOut·Bᵀ
	}
	if b.needGrad {
		if tp.training && tensor.HasAsmGemm() {
			// dB += Aᵀ·dOut as a plain GEMM: materializing Aᵀ in tape
			// scratch costs M·K copies against M·K·N multiply-adds, lets
			// the assembly run, and is bit-equal to MatMulATAcc.
			at := &tp.tmT
			at.Rows, at.Cols = a.W.Cols, a.W.Rows
			at.Data = tp.scratch(len(a.W.Data))
			tensor.TransposeInto(at, a.W)
			tensor.MatMulAcc(b.Grad(), at, dOut)
		} else {
			tensor.MatMulATAcc(b.Grad(), a.W, dOut) // dB += Aᵀ·dOut
		}
	}
}
