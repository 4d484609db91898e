package tensor

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// The on-disk form of a float32 run — parameter files, checkpoints and log
// records — is its IEEE-754 bit patterns, little endian, back to back. On a
// little-endian host that is also the in-memory form, so DecodeLE is one
// copy there. Otherwise both directions go four values a step over
// re-sliced windows, which is what lets the compiler drop the per-element
// bounds checks (4–5× on a 172-float row).

// hostLE reports whether this host stores a float32 little endian.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// AppendLE appends vals in that form to buf, growing it at most once.
func AppendLE(buf []byte, vals []float32) []byte {
	o := len(buf)
	buf = slices.Grow(buf, 4*len(vals))[:o+4*len(vals)]
	dst := buf[o:]
	for len(vals) >= 4 && len(dst) >= 16 {
		binary.LittleEndian.PutUint32(dst[0:], math.Float32bits(vals[0]))
		binary.LittleEndian.PutUint32(dst[4:], math.Float32bits(vals[1]))
		binary.LittleEndian.PutUint32(dst[8:], math.Float32bits(vals[2]))
		binary.LittleEndian.PutUint32(dst[12:], math.Float32bits(vals[3]))
		vals, dst = vals[4:], dst[16:]
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
	return buf
}

// DecodeLE fills dst from the first 4·len(dst) bytes of src, bit for bit.
func DecodeLE(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	if hostLE {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), len(src)), src)
		return
	}
	decodeLELoop(dst, src)
}

// decodeLELoop is DecodeLE value by value: the big-endian path, and the
// reference the copy is tested against.
func decodeLELoop(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for len(dst) >= 4 && len(src) >= 16 {
		dst[0] = math.Float32frombits(binary.LittleEndian.Uint32(src[0:]))
		dst[1] = math.Float32frombits(binary.LittleEndian.Uint32(src[4:]))
		dst[2] = math.Float32frombits(binary.LittleEndian.Uint32(src[8:]))
		dst[3] = math.Float32frombits(binary.LittleEndian.Uint32(src[12:]))
		dst, src = dst[4:], src[16:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
