// Package tensor provides dense float32 linear algebra for the neural
// substrate. Matrices are row-major; all operations are CPU-only and
// allocation-conscious so they can sit in training and serving hot paths.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (len rows*cols) without copying.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a mutable view of row r.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Zero sets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add accumulates o into m element-wise.
func (m *Matrix) Add(o *Matrix) {
	m.mustSameShape(o, "Add")
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled accumulates s*o into m.
func (m *Matrix) AddScaled(o *Matrix, s float32) {
	m.mustSameShape(o, "AddScaled")
	for i, v := range o.Data {
		m.Data[i] += s * v
	}
}

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and distinct from a, b.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d · %dx%d -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	MatMulAcc(dst, a, b)
}

// MatMulAcc computes dst += a·b in the operation order matMulAccKernel
// documents. matMulAcc is the one architecture hook: the AVX2 body on amd64
// (same bits), the Go kernel itself elsewhere.
func MatMulAcc(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAcc shapes %dx%d · %dx%d -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	matMulAcc(dst, a, b)
}

// MatMulATAcc computes dst += aᵀ·b where a is stored untransposed — the
// weight-gradient accumulation dW += Xᵀ·dY (backward pass only; no serving
// path calls it). The k loop is blocked four rows deep so each dst row is
// streamed once per four k-steps, which quarters the dominant load/store
// traffic; all-zero 4-blocks of the input column (post-ReLU activations,
// empty mail slots) are skipped. Per output element this is MatMulAcc's
// order over aᵀ (gemm_test.go holds the two bit-equal), with the products
// kept unfused the same way.
func MatMulATAcc(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATAcc shapes (%dx%d)ᵀ · %dx%d -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := b.Cols
	ac := a.Cols
	k := 0
	for ; k+4 <= a.Rows; k += 4 {
		a0 := a.Data[k*ac : (k+1)*ac]
		a1 := a.Data[(k+1)*ac : (k+2)*ac]
		a2 := a.Data[(k+2)*ac : (k+3)*ac]
		a3 := a.Data[(k+3)*ac : (k+4)*ac]
		b0 := b.Data[k*n : (k+1)*n]
		b1 := b.Data[(k+1)*n : (k+2)*n]
		b2 := b.Data[(k+2)*n : (k+3)*n]
		b3 := b.Data[(k+3)*n : (k+4)*n]
		for i := 0; i < ac; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			b0, b1, b2, b3 := b0[:len(drow)], b1[:len(drow)], b2[:len(drow)], b3[:len(drow)]
			for j := range drow {
				drow[j] += float32(v0*b0[j]) + float32(v1*b1[j]) + float32(v2*b2[j]) + float32(v3*b3[j])
			}
		}
	}
	for ; k < a.Rows; k++ {
		arow := a.Data[k*ac : (k+1)*ac]
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

// TransposeInto writes aᵀ into dst (which must be a.Cols×a.Rows), in 8×8
// tiles so both matrices stream through cache. The backward pass uses it to
// turn dB += Aᵀ·G into a plain dst += a·b call where MatMulAcc is the
// assembly (same bits as MatMulATAcc).
func TransposeInto(dst, a *Matrix) {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto shapes %dx%d -> %dx%d", a.Rows, a.Cols, dst.Rows, dst.Cols))
	}
	const tile = 8
	r, c := a.Rows, a.Cols
	for i0 := 0; i0 < r; i0 += tile {
		i1 := min(i0+tile, r)
		for j0 := 0; j0 < c; j0 += tile {
			j1 := min(j0+tile, c)
			for i := i0; i < i1; i++ {
				arow := a.Data[i*c : (i+1)*c]
				for j := j0; j < j1; j++ {
					dst.Data[j*r+i] = arow[j]
				}
			}
		}
	}
}

// MatMulBTAcc computes dst += a·bᵀ where b is stored untransposed — the
// input-gradient accumulation dX += dY·Wᵀ (backward pass only; four b-rows
// per pass, see kernels.go).
func MatMulBTAcc(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulBTAcc shapes %dx%d · (%dx%d)ᵀ -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	matMulBTAccKernel(dst, a, b)
}

// Dot returns the inner product of equal-length vectors a and b
// (4-accumulator kernel; equal to a sequential sum up to float32 rounding).
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	return dotKernel(a, b)
}

// Axpy accumulates s*x into y. One body per machine, as for MatMulAcc: the
// AVX2 assembly where the CPU has it, axpyKernel elsewhere, the same bits
// from both.
func Axpy(y, x []float32, s float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(y), len(x)))
	}
	axpy(y, x, s)
}

// axpyKernel is the definition of Axpy's arithmetic: per element, the
// product rounded to float32, then the sum. The explicit conversion forbids
// fusing the two (see matMulAccKernel), so the assembly's separate multiply
// and add match it bit for bit on every build.
func axpyKernel(y, x []float32, s float32) {
	x = x[:len(y)] // hoist the bounds check out of the loop
	for i := range y {
		y[i] += float32(s * x[i])
	}
}

// Transpose returns a new matrix mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// RandN fills m with N(0, std²) samples drawn from rng.
func (m *Matrix) RandN(rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// RandUniform fills m with samples drawn uniformly from [lo, hi).
func (m *Matrix) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range m.Data {
		m.Data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
}

// XavierInit fills m with the Glorot-uniform distribution for a fanIn×fanOut
// weight matrix.
func (m *Matrix) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	m.RandUniform(rng, -limit, limit)
}

// Norm2 returns the Frobenius norm of m.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element of m (0 for empty matrices).
func (m *Matrix) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}
