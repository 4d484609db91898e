package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naive straight-line references the blocked kernels must agree with up to
// float32 rounding.

func naiveDot(a, b []float32) float32 {
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func naiveMatMulAcc(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.Cols; j++ {
				dst.Data[i*dst.Cols+j] += av * b.At(k, j)
			}
		}
	}
}

func naiveMatMulBTAcc(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			dst.Data[i*dst.Cols+j] += naiveDot(a.Row(i), b.Row(j))
		}
	}
}

// relErr is the relative disagreement, 0 when both are tiny.
func relErr(got, want float32) float64 {
	d := math.Abs(float64(got - want))
	den := math.Abs(float64(got)) + math.Abs(float64(want))
	if den < 1e-6 {
		return 0
	}
	return d / den
}

// close32 accepts a blocked-kernel result when it agrees with the naive
// order to 1e-4 relative OR absolute tolerance. The absolute escape matters
// for catastrophic cancellation: when large terms of a dot product nearly
// cancel, a different summation order legitimately keeps only a handful of
// correct bits, so the *relative* error of a number near zero can blow past
// any fixed bound while the result is still as accurate as float32 allows.
func close32(got, want float32) bool {
	return relErr(got, want) <= 1e-4 || math.Abs(float64(got-want)) <= 1e-4
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// TestQuickDotMatchesNaive: blocked Dot ≈ sequential Dot at every length,
// including the unrolled remainder cases.
func TestQuickDotMatchesNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) + 1
		a, b := randSlice(rng, n), randSlice(rng, n)
		return close32(Dot(a, b), naiveDot(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAxpyMatchesNaive: the unrolled Axpy is element-wise independent,
// so it must be bitwise identical to the naive loop.
func TestQuickAxpyMatchesNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) + 1
		x := randSlice(rng, n)
		s := float32(rng.NormFloat64())
		y1, y2 := randSlice(rng, n), make([]float32, n)
		copy(y2, y1)
		Axpy(y1, x, s)
		for i := range y2 {
			y2[i] += s * x[i]
		}
		for i := range y1 {
			if y1[i] != y2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAxpyBitExact is Axpy's contract, the same as MatMulAcc's: the body
// this machine runs (the AVX2 assembly on amd64) produces axpyKernel's bits at
// every length 0–200 — 172 and 86, the serving mail and head widths, by name —
// for s ∈ {1, −1, 0, random}, over inputs salted with ±0, denormals, ±Inf and
// NaNs of several payloads, on sub-slices at every 4-byte alignment, and
// writes nothing outside y.
func TestQuickAxpyBitExact(t *testing.T) {
	t.Logf("Axpy body under test: %s", Tier())
	specials := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa5a5a5)}
	draw := func(rng *rand.Rand, n int) (s, backing []float32, off int) {
		off = rng.Intn(8)
		s, backing = offsetSlice(n, off)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
			if rng.Intn(6) == 0 {
				s[i] = specials[rng.Intn(len(specials))]
			}
		}
		return
	}
	check := func(seed int64, n int) bool {
		rng := rand.New(rand.NewSource(seed))
		x, _, _ := draw(rng, n)
		y, yBack, yOff := draw(rng, n)
		for _, s := range []float32{1, -1, 0, float32(rng.NormFloat64())} {
			want := append([]float32(nil), y...)
			axpyKernel(want, x, s)
			Axpy(y, x, s)
			for i, w := range want {
				if !sameBits(y[i], w) {
					t.Logf("seed %d, n=%d, s=%g, element %d: got %08x, reference %08x (y+s·%08x)", seed, n, s, i,
						math.Float32bits(y[i]), math.Float32bits(w), math.Float32bits(x[i]))
					return false
				}
			}
			for i, v := range yBack {
				if (i < yOff || i >= yOff+n) && v != gemmGuard {
					t.Logf("seed %d, n=%d: wrote outside y at backing[%d]", seed, n, i)
					return false
				}
			}
		}
		return true
	}
	for n := 0; n <= 200; n++ {
		if !check(int64(n), n) {
			t.Fatalf("length %d", n)
		}
	}
	f := func(seed int64, nRaw uint8) bool { return check(seed, []int{172, 86, int(nRaw) % 201}[uint64(seed)%3]) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAddScaledTo: the fused kernel equals copy-then-AddScaled bitwise.
func TestAddScaledTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 4, 17, 128} {
		a, b := randSlice(rng, n), randSlice(rng, n)
		s := float32(rng.NormFloat64())
		dst := make([]float32, n)
		AddScaledTo(dst, a, b, s)
		want := make([]float32, n)
		copy(want, a)
		Axpy(want, b, s)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d i=%d: fused %g vs sequential %g", n, i, dst[i], want[i])
			}
		}
	}
}

// TestQuickMatMulAccMatchesNaive: the k-blocked kernel ≈ the triple loop on
// random shapes, including sparse inputs that exercise the zero-block skip.
func TestQuickMatMulAccMatchesNaive(t *testing.T) {
	f := func(seed int64, mRaw, kRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := int(mRaw)%12+1, int(kRaw)%24+1, int(nRaw)%12+1
		a := FromSlice(m, k, randSlice(rng, m*k))
		// Half the runs get ReLU-like sparsity in a.
		if seed%2 == 0 {
			for i := range a.Data {
				if a.Data[i] < 0 {
					a.Data[i] = 0
				}
			}
		}
		b := FromSlice(k, n, randSlice(rng, k*n))
		got, want := New(m, n), New(m, n)
		MatMulAcc(got, a, b)
		naiveMatMulAcc(want, a, b)
		for i := range got.Data {
			if !close32(got.Data[i], want.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMatMulBTAccMatchesNaive covers the transposed-B kernel.
func TestQuickMatMulBTAccMatchesNaive(t *testing.T) {
	f := func(seed int64, mRaw, kRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := int(mRaw)%12+1, int(kRaw)%24+1, int(nRaw)%12+1
		a := FromSlice(m, k, randSlice(rng, m*k))
		b := FromSlice(n, k, randSlice(rng, n*k)) // untransposed B
		got, want := New(m, n), New(m, n)
		MatMulBTAcc(got, a, b)
		naiveMatMulBTAcc(want, a, b)
		for i := range got.Data {
			if !close32(got.Data[i], want.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	a := FromSlice(200, 172, randSlice(rng, 200*172))
	w := FromSlice(172, 172, randSlice(rng, 172*172))
	dst := New(200, 172)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, w)
	}
}

func BenchmarkDot(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	x, y := randSlice(rng, 172), randSlice(rng, 172)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

// BenchmarkAxpy is the propagator's accumulate: one 172-float mail into one
// recipient's sum. /go is the reference body the assembly replaces.
func BenchmarkAxpy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randSlice(rng, 172), randSlice(rng, 172)
	b.Run(Tier(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Axpy(y, x, 1)
		}
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			axpyKernel(y, x, 1)
		}
	})
}
