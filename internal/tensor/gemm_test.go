package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gemmCase is one randomly drawn MatMulAcc problem plus which of the awkward
// input classes it contains, so the property can prove it visited them all.
type gemmCase struct {
	m, k, n   int
	a, b, dst []float32 // sub-slices of larger backings: arbitrary 4-byte alignment
	dstBack   []float32 // dst's backing, guard values on both sides
	dstOff    int

	zeroBlock, negZero, nanCoef, unaligned bool
}

const gemmGuard = float32(12345.678)

// offsetSlice returns a length-n slice starting off elements into a fresh
// backing, so its base pointer is 4·off bytes past the allocator's alignment.
func offsetSlice(n, off int) (s, backing []float32) {
	backing = make([]float32, n+off+8)
	for i := range backing {
		backing[i] = gemmGuard
	}
	return backing[off : off+n : off+n], backing
}

// drawGemmCase draws m∈[1,40], k∈[1,200], n∈[1,200] (a quarter of the draws
// force n<8), an a matrix of unit normals salted per 4-block with all-zero
// blocks of mixed ±0, lone −0 coefficients and the occasional NaN/Inf, a
// finite b, and a pre-filled dst that contains −0 entries — the only values
// on which "skip the block" and "add a zero sum" differ.
func drawGemmCase(rng *rand.Rand) *gemmCase {
	c := &gemmCase{m: rng.Intn(40) + 1, k: rng.Intn(200) + 1, n: rng.Intn(200) + 1}
	if rng.Intn(4) == 0 {
		c.n = rng.Intn(7) + 1
	}
	offA, offB, offD := rng.Intn(8), rng.Intn(8), rng.Intn(8)
	c.unaligned = offA+offB+offD > 0
	c.a, _ = offsetSlice(c.m*c.k, offA)
	c.b, _ = offsetSlice(c.k*c.n, offB)
	c.dst, c.dstBack = offsetSlice(c.m*c.n, offD)
	c.dstOff = offD

	negZero := float32(math.Copysign(0, -1))
	for i := 0; i < c.m; i++ {
		row := c.a[i*c.k : (i+1)*c.k]
		for k0 := 0; k0 < c.k; k0 += 4 {
			blk := row[k0:min(k0+4, c.k)]
			switch r := rng.Intn(16); {
			case r < 4: // an all-zero block, signs mixed
				for t := range blk {
					blk[t] = 0
					if rng.Intn(2) == 0 {
						blk[t] = negZero
						c.negZero = true
					}
				}
				c.zeroBlock = c.zeroBlock || len(blk) == 4
			case r == 4: // zeros around one non-finite coefficient: must not skip
				for t := range blk {
					blk[t] = 0
				}
				blk[rng.Intn(len(blk))] = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[rng.Intn(3)]
				c.nanCoef = true
			default:
				for t := range blk {
					blk[t] = float32(rng.NormFloat64())
					switch rng.Intn(8) {
					case 0:
						blk[t] = 0
					case 1:
						blk[t] = negZero
						c.negZero = true
					}
				}
			}
		}
	}
	for i := range c.b {
		c.b[i] = float32(rng.NormFloat64())
	}
	for i := range c.dst {
		switch rng.Intn(6) {
		case 0:
			c.dst[i] = negZero
		case 1:
			c.dst[i] = 0
		default:
			c.dst[i] = float32(rng.NormFloat64())
		}
	}
	return c
}

// sameBits is bitwise float32 equality with every NaN equal to every other
// (NaN payloads are not part of the kernel contract).
func sameBits(x, y float32) bool {
	if x != x || y != y {
		return x != x && y != y
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

// TestQuickGemmBitExact is the contract of the one float32 GEMM: whatever
// body MatMulAcc runs on this machine (the AVX2 assembly on amd64) produces
// the bits of the Go reference matMulAccKernel — not close, equal — on every
// shape class the assembly has a separate path for, and writes nothing
// outside dst. An FMA body fails it within the first few draws.
func TestQuickGemmBitExact(t *testing.T) {
	t.Logf("MatMulAcc body under test: %s", Tier())
	var seen [7]int // n<8, n%8≠0, k%4≠0, all-zero 4-block, −0 coefficient, NaN/Inf coefficient, unaligned Data
	f := func(seed int64) bool {
		c := drawGemmCase(rand.New(rand.NewSource(seed)))
		a, b := FromSlice(c.m, c.k, c.a), FromSlice(c.k, c.n, c.b)
		want := FromSlice(c.m, c.n, append([]float32(nil), c.dst...))
		matMulAccKernel(want, a, b)
		MatMulAcc(FromSlice(c.m, c.n, c.dst), a, b)
		for i, w := range want.Data {
			if !sameBits(c.dst[i], w) {
				t.Logf("seed %d, %dx%d·%dx%d, element (%d,%d): got %08x (%g), reference %08x (%g)", seed,
					c.m, c.k, c.k, c.n, i/c.n, i%c.n, math.Float32bits(c.dst[i]), c.dst[i], math.Float32bits(w), w)
				return false
			}
		}
		for i, v := range c.dstBack {
			if (i < c.dstOff || i >= c.dstOff+len(c.dst)) && v != gemmGuard {
				t.Logf("seed %d, %dx%d·%dx%d: wrote outside dst at backing[%d]", seed, c.m, c.k, c.k, c.n, i)
				return false
			}
		}
		for i, hit := range []bool{c.n < 8, c.n%8 != 0, c.k%4 != 0, c.zeroBlock, c.negZero, c.nanCoef, c.unaligned} {
			if hit {
				seen[i]++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, n := range seen {
		if n == 0 {
			t.Fatalf("generator missed an input class: %v", seen)
		}
	}
}

// TestGemmSkipPredicate pins the two halves of the skip rule on their own:
// a block of mixed ±0 is skipped (a −0 in dst survives; adding the block's
// +0 sum would flip it to +0), and a NaN among zeros is not (it must reach
// dst).
func TestGemmSkipPredicate(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{3, 8, 11} { // scalar tail only, vector only, both
		b := New(4, n)
		b.Fill(1)
		dst := New(1, n)
		dst.Fill(negZero)
		MatMulAcc(dst, FromSlice(1, 4, []float32{negZero, 0, negZero, 0}), b)
		for j, v := range dst.Data {
			if math.Float32bits(v) != math.Float32bits(negZero) {
				t.Fatalf("n=%d: ±0 block was not skipped: dst[%d] = %08x", n, j, math.Float32bits(v))
			}
		}
		MatMulAcc(dst, FromSlice(1, 4, []float32{0, float32(math.NaN()), 0, 0}), b)
		for j, v := range dst.Data {
			if v == v {
				t.Fatalf("n=%d: NaN coefficient was skipped: dst[%d] = %g", n, j, v)
			}
		}
	}
}

// TestQuickATAccEqualsTransposedGemm: the weight-gradient kernel MatMulATAcc
// and MatMulAcc over an explicit transpose sum in the same order with the
// same block skip, so nn's backward may use either for dB (it takes the
// second where MatMulAcc is the assembly) without moving a gradient bit.
func TestQuickATAccEqualsTransposedGemm(t *testing.T) {
	f := func(seed int64) bool {
		c := drawGemmCase(rand.New(rand.NewSource(seed)))
		at, b := FromSlice(c.m, c.k, c.a), FromSlice(c.k, c.n, c.b) // c.a read as (k×m)ᵀ
		a := New(c.k, c.m)
		TransposeInto(a, at)
		want := FromSlice(c.m, c.n, append([]float32(nil), c.dst...))
		MatMulATAcc(want, a, b)
		MatMulAcc(FromSlice(c.m, c.n, c.dst), at, b)
		for i, w := range want.Data {
			if !sameBits(c.dst[i], w) {
				t.Logf("seed %d, (%dx%d)ᵀ·%dx%d, element %d: transposed GEMM %08x, MatMulATAcc %08x", seed,
					c.k, c.m, c.k, c.n, i, math.Float32bits(c.dst[i]), math.Float32bits(w))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
