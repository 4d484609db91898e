package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero data")
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("At wrong: %v", m.Data)
	}
	m.Set(1, 2, 9)
	if m.At(1, 2) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	dst := New(2, 2)
	MatMul(dst, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("MatMul[%d]=%v want %v", i, dst.Data[i], w)
		}
	}
}

func TestMatMulShapesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestTransposedMultiplies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 5)
	b := New(4, 6)
	a.RandN(rng, 1)
	b.RandN(rng, 1)

	// aᵀ·b via MatMulATAcc vs explicit transpose.
	got := New(5, 6)
	MatMulATAcc(got, a, b)
	want := New(5, 6)
	MatMul(want, a.Transpose(), b)
	for i := range got.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("ATAcc[%d]=%v want %v", i, got.Data[i], want.Data[i])
		}
	}

	// a·cᵀ via MatMulBTAcc vs explicit transpose.
	c := New(6, 5)
	c.RandN(rng, 1)
	got2 := New(4, 6)
	a2 := New(4, 5)
	a2.CopyFrom(a)
	MatMulBTAcc(got2, a2, c)
	want2 := New(4, 6)
	MatMul(want2, a2, c.Transpose())
	for i := range got2.Data {
		if !almostEqual(got2.Data[i], want2.Data[i], 1e-4) {
			t.Fatalf("BTAcc[%d]=%v want %v", i, got2.Data[i], want2.Data[i])
		}
	}
}

// TestTransposeInto: the tiled transpose equals the element-wise one on
// shapes that are not multiples of its 8×8 tile.
func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range [][2]int{{1, 1}, {4, 5}, {8, 8}, {13, 21}, {172, 9}} {
		a := New(sh[0], sh[1])
		a.RandN(rng, 1)
		got := New(sh[1], sh[0])
		TransposeInto(got, a)
		want := a.Transpose()
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%d: element %d = %v, want %v", sh[0], sh[1], i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(1, 4, []float32{1, 2, 3, 4})
	b := FromSlice(1, 4, []float32{4, 3, 2, 1})
	a.Add(b)
	for _, v := range a.Data {
		if v != 5 {
			t.Fatalf("Add: %v", a.Data)
		}
	}
	a.Scale(0.5)
	if a.Data[0] != 2.5 {
		t.Fatalf("Scale: %v", a.Data)
	}
	a.AddScaled(b, 2)
	if a.Data[0] != 10.5 {
		t.Fatalf("AddScaled: %v", a.Data)
	}
}

func TestDotAndAxpy(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot=%v", Dot(a, b))
	}
	y := []float32{1, 1, 1}
	Axpy(y, a, 2)
	if y[0] != 3 || y[2] != 7 {
		t.Fatalf("Axpy: %v", y)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestSoftmaxRow(t *testing.T) {
	row := []float32{1, 2, 3}
	SoftmaxRow(row)
	var sum float32
	for _, v := range row {
		sum += v
	}
	if !almostEqual(sum, 1, 1e-5) {
		t.Fatalf("softmax sum %v", sum)
	}
	if !(row[2] > row[1] && row[1] > row[0]) {
		t.Fatalf("softmax order: %v", row)
	}
	// Large values must not overflow.
	big := []float32{1000, 1001}
	SoftmaxRow(big)
	if math.IsNaN(float64(big[0])) || !almostEqual(big[0]+big[1], 1, 1e-5) {
		t.Fatalf("softmax overflow: %v", big)
	}
}

func TestSigmoidStable(t *testing.T) {
	if Sigmoid32(1000) != 1 {
		t.Fatalf("sigmoid(1000)=%v", Sigmoid32(1000))
	}
	if Sigmoid32(-1000) != 0 {
		t.Fatalf("sigmoid(-1000)=%v", Sigmoid32(-1000))
	}
	if !almostEqual(Sigmoid32(0), 0.5, 1e-6) {
		t.Fatalf("sigmoid(0)=%v", Sigmoid32(0))
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(50, 50)
	m.XavierInit(rng)
	limit := float32(math.Sqrt(6.0 / 100.0))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier out of range: %v (limit %v)", v, limit)
		}
	}
	if m.Norm2() == 0 {
		t.Fatal("Xavier left matrix zero")
	}
}

// Property: matmul distributes over addition, (A+B)·C = A·C + B·C.
func TestMatMulDistributesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b, c := New(n, k), New(n, k), New(k, m)
		a.RandN(rng, 1)
		b.RandN(rng, 1)
		c.RandN(rng, 1)
		left := New(n, m)
		sum := a.Clone()
		sum.Add(b)
		MatMul(left, sum, c)
		right := New(n, m)
		MatMul(right, a, c)
		MatMulAcc(right, b, c)
		for i := range left.Data {
			if !almostEqual(left.Data[i], right.Data[i], 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transposing twice is the identity.
func TestDoubleTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(8), 1+r.Intn(8)
		a := New(n, m)
		a.RandN(r, 1)
		tt := a.Transpose().Transpose()
		for i := range a.Data {
			if a.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for any finite row.
func TestSoftmaxProbabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		row := make([]float32, 1+r.Intn(12))
		for i := range row {
			row[i] = float32(r.NormFloat64() * 10)
		}
		SoftmaxRow(row)
		var sum float32
		for _, v := range row {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return almostEqual(sum, 1, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromSlice(1, 3, []float32{-5, 2, 3})
	if m.MaxAbs() != 5 {
		t.Fatalf("MaxAbs=%v", m.MaxAbs())
	}
	if New(0, 0).MaxAbs() != 0 {
		t.Fatal("empty MaxAbs should be 0")
	}
}

// TestLERoundTrip: AppendLE writes each value's bit pattern little endian
// after what the buffer already holds, and DecodeLE reads them back bit for
// bit, NaN payloads and −0 included, at every length around the 4-wide step.
func TestLERoundTrip(t *testing.T) {
	for n := 0; n <= 13; n++ {
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(0x7fc00001 + uint32(i)*0x01010101)
		}
		if n > 1 {
			vals[1] = float32(math.Copysign(0, -1))
		}
		buf := AppendLE([]byte{0xAA}, vals)
		if len(buf) != 1+4*n || buf[0] != 0xAA {
			t.Fatalf("n=%d: %d bytes, head %x", n, len(buf), buf[0])
		}
		for i, v := range vals {
			if got := binary.LittleEndian.Uint32(buf[1+4*i:]); got != math.Float32bits(v) {
				t.Fatalf("n=%d: value %d encoded as %08x, want %08x", n, i, got, math.Float32bits(v))
			}
		}
		back := make([]float32, n)
		DecodeLE(back, append(buf[1:], 0xFF)) // a longer source is fine; only 4n bytes are read
		for i := range vals {
			if math.Float32bits(back[i]) != math.Float32bits(vals[i]) {
				t.Fatalf("n=%d: value %d came back %08x", n, i, math.Float32bits(back[i]))
			}
		}
	}
}

// TestQuickDecodeLECopyMatchesLoop: DecodeLE, a copy on a little-endian
// host, fills dst with the bits the value-by-value loop does — over ragged
// lengths, sources that start at any byte offset of their allocation, NaN
// payloads (quiet and signalling), ±0 and ±Inf — and writes nothing past
// len(dst).
func TestQuickDecodeLECopyMatchesLoop(t *testing.T) {
	special := []uint32{0x7fc00001, 0x7f800001, 0xffbfffff, 0x80000000, 0, 0x7f800000, 0xff800000, 1}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, off := rng.Intn(70), rng.Intn(8)
		raw := make([]byte, off+4*n+rng.Intn(5))
		rng.Read(raw)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				binary.LittleEndian.PutUint32(raw[off+4*i:], special[rng.Intn(len(special))])
			}
		}
		got, want := make([]float32, n+1), make([]float32, n+1)
		got[n], want[n] = 7, 7
		DecodeLE(got[:n], raw[off:])
		decodeLELoop(want[:n], raw[off:])
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Logf("seed %d: n=%d offset %d: value %d is %08x, loop %08x", seed, n, off, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				return false
			}
		}
		for i := 0; i < n; i++ {
			if math.Float32bits(want[i]) != binary.LittleEndian.Uint32(raw[off+4*i:]) {
				t.Logf("seed %d: the loop decoded value %d as %08x", seed, i, math.Float32bits(want[i]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
