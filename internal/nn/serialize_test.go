package nn

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

func fuzzParams() []*Tensor {
	params := []*Tensor{Param(2, 3), Param(1, 4), Param(3, 1)}
	for i, p := range params {
		for j := range p.W.Data {
			p.W.Data[j] = float32(i) - 0.25*float32(j)
		}
	}
	return params
}

// TestLoadParamsRefusalLeavesParamsUntouched: a blob cut anywhere, or with
// one shape field off by one, is refused before the first value is written —
// the old reader filled tensors 0..i−1 before it found tensor i short.
func TestLoadParamsRefusalLeavesParamsUntouched(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, fuzzParams()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	var files [][]byte
	for cut := 0; cut < len(valid); cut++ {
		files = append(files, valid[:cut])
	}
	lastShape := append([]byte(nil), valid...)
	lastShape[len(valid)-3*4-8]++ // rows of the last tensor
	files = append(files, lastShape)
	for _, b := range files {
		dst := []*Tensor{Param(2, 3), Param(1, 4), Param(3, 1)}
		if err := LoadParams(bytes.NewReader(b), dst); err == nil {
			t.Fatalf("a %d-byte blob (valid: %d) loaded", len(b), len(valid))
		}
		for i, p := range dst {
			for j, v := range p.W.Data {
				if v != 0 {
					t.Fatalf("%d-byte blob: refused load wrote param %d[%d] = %g", len(b), i, j, v)
				}
			}
		}
	}
	// LoadParams takes exactly one blob from the reader and leaves the rest.
	r := bytes.NewReader(append(append([]byte(nil), valid...), "tail"...))
	if err := LoadParams(r, fuzzParams()); err != nil || r.Len() != 4 {
		t.Fatalf("blob followed by 4 bytes: err %v, %d bytes left in the reader", err, r.Len())
	}
}

// FuzzLoadParams: whatever the bytes, LoadParams does not panic, allocates
// the model's own blob length and nothing sized by the input, and either
// loads every tensor or writes none. The seeds are written here from the
// current SaveParams, so they are always the current layout.
func FuzzLoadParams(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveParams(&buf, fuzzParams()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{0, 3, 4, 8, 12, 20, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	for _, off := range []int{0, 4, 8, 12, 16} {
		b := append([]byte(nil), valid...)
		b[off] ^= 0x81
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		dst := fuzzParams()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := LoadParams(bytes.NewReader(b), dst)
		runtime.ReadMemStats(&ms1)
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 16<<10 {
			t.Fatalf("a %d-byte input allocated %d bytes, err = %v", len(b), got, err)
		}
		for i, p := range fuzzParams() {
			for j, was := range p.W.Data {
				now := dst[i].W.Data[j]
				if err != nil && math.Float32bits(now) != math.Float32bits(was) {
					t.Fatalf("refused load (%v) wrote param %d[%d]", err, i, j)
				}
				if o := 12 + 8*(i+1) + 4*(offsetOf(i)+j); err == nil && math.Float32bits(now) != le.Uint32(b[o:]) {
					t.Fatalf("accepted load: param %d[%d] is not the file's bytes at %d", i, j, o)
				}
			}
		}
	})
}

// offsetOf is the number of values before tensor i in fuzzParams' blob.
func offsetOf(i int) int { return []int{0, 6, 10}[i] }
