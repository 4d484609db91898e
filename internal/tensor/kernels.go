package tensor

import "fmt"

// This file holds the blocked/unrolled float32 kernels behind the public
// linear-algebra entry points in matrix.go. The shapes APAN serves are
// short-fat: row vectors of the embedding dimension d (~100–200 floats)
// multiplied against d×d projection weights, so the kernels optimize for
// (a) keeping a handful of independent accumulators in registers to hide
// add latency, and (b) streaming each output row once per four k-steps
// instead of once per k-step. Summation order differs from the naive
// loops, so results are equal to the naive path only up to float32
// rounding (ε); see kernels_test.go for the testing/quick equivalence
// properties against straight-line references. Every serving digest is
// defined against the orders written here.

// dotKernel is the 4-accumulator inner product.
func dotKernel(a, b []float32) float32 {
	n := len(a)
	b = b[:n] // hoist the bounds check out of the loop
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// dot4Kernel computes four inner products of a against b0..b3 in one pass
// over a, so a is loaded once per four outputs (the a·Bᵀ access pattern of
// attention K·Q scoring, where four key rows share one query row).
func dot4Kernel(a, b0, b1, b2, b3 []float32) (d0, d1, d2, d3 float32) {
	// Reslicing to len(a) hoists the four per-element bounds checks.
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, av := range a {
		d0 += av * b0[i]
		d1 += av * b1[i]
		d2 += av * b2[i]
		d3 += av * b3[i]
	}
	return
}

// AddScaledTo computes dst = a + s*b element-wise in one pass (the fused
// form of CopyFrom+AddScaled, saving a full write+read of dst).
func AddScaledTo(dst, a, b []float32, s float32) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic(fmt.Sprintf("tensor: AddScaledTo length mismatch %d/%d/%d", len(dst), len(a), len(b)))
	}
	for i, av := range a {
		dst[i] = av + s*b[i]
	}
}

// SoftmaxRow overwrites row with softmax(row): max-subtraction, a single
// sequential exp-sum accumulator, then one normalization pass. Serving
// scores are bit-exact against this order.
func SoftmaxRow(row []float32) {
	if len(row) == 0 {
		return
	}
	mx := row[0]
	for _, v := range row[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float32
	for i, v := range row {
		e := Exp32(v - mx)
		row[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range row {
		row[i] *= inv
	}
}

// LayerNormRow normalizes one row: dst = g⊙(x−mean)/std + b, returning the
// inverse standard deviation, with sequential mean and variance accumulators
// (serving scores are bit-exact against this order). A non-nil xhat
// additionally receives the normalized values (the backward-pass cache used
// by training tapes).
func LayerNormRow(dst, xhat, x, g, b []float32, eps float32) float32 {
	d := len(x)
	var mean float32
	for _, v := range x {
		mean += v
	}
	mean /= float32(d)
	var vr float32
	for _, v := range x {
		dv := v - mean
		vr += dv * dv
	}
	vr /= float32(d)
	is := 1 / Sqrt32(vr+eps)
	if xhat != nil {
		for j, v := range x {
			h := (v - mean) * is
			xhat[j] = h
			dst[j] = g[j]*h + b[j]
		}
	} else {
		for j, v := range x {
			h := (v - mean) * is
			dst[j] = g[j]*h + b[j]
		}
	}
	return is
}

// matMulAccKernel computes dst += a·b and is the definition of MatMulAcc's
// arithmetic: the AVX2 body (asm_amd64.s) must produce the same bits, and the
// differential property in gemm_test.go holds it to that. Per output element
// (i,j), every operation individually rounded to float32:
//
//   - for each 4-block of k, ascending, unless all four a coefficients == 0
//     (−0 skips too, NaN does not): d = d + (((a0·b0 + a1·b1) + a2·b2) + a3·b3);
//   - then for each leftover k with a != 0: d = d + a·b.
//
// The order is per element, so any tiling over i and j computes the same
// bits; a fused multiply-add does not, which is why the products are written
// as explicit float32 conversions (the Go spec forbids fusing across one, so
// GOAMD64=v3 cannot turn this reference into something else). The ikj order
// streams each dst row once per four rows of b, and skipping all-zero
// k-blocks keeps the post-ReLU sparsity win of the naive kernel.
func matMulAccKernel(dst, a, b *Matrix) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*n : (i+1)*n]
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			b2 := b.Data[(k+2)*n : (k+3)*n]
			b3 := b.Data[(k+3)*n : (k+4)*n]
			// Reslicing to the output width hoists the bounds checks.
			b0, b1, b2, b3 = b0[:len(drow)], b1[:len(drow)], b2[:len(drow)], b3[:len(drow)]
			for j := range drow {
				drow[j] += float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
			}
		}
		for ; k < len(arow); k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

// matMulBTAccKernel computes dst += a·bᵀ, four b-rows per pass so each a-row
// stays hot while four output columns are produced.
func matMulBTAccKernel(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*b.Cols : (j+1)*b.Cols]
			b1 := b.Data[(j+1)*b.Cols : (j+2)*b.Cols]
			b2 := b.Data[(j+2)*b.Cols : (j+3)*b.Cols]
			b3 := b.Data[(j+3)*b.Cols : (j+4)*b.Cols]
			d0, d1, d2, d3 := dot4Kernel(arow, b0, b1, b2, b3)
			drow[j] += d0
			drow[j+1] += d1
			drow[j+2] += d2
			drow[j+3] += d3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			drow[j] += dotKernel(arow, brow)
		}
	}
}

// Tier names the float32 GEMM body MatMulAcc runs in this process: "avx2"
// (the assembly) or "go" (matMulAccKernel). There is nothing to select.
func Tier() string {
	if HasAsmGemm() {
		return "avx2"
	}
	return "go"
}
