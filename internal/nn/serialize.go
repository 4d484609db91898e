package nn

import (
	"encoding/binary"
	"fmt"
	"io"

	"apan/internal/tensor"
)

// Parameter serialization: a minimal versioned binary format so trained
// models survive process restarts. Layout (little endian):
//
//	magic "APNN" | version u32 | count u32 |
//	repeat count times: rows u32 | cols u32 | rows·cols float32
//
// Parameters are identified by position, so Save and Load must be given the
// same parameter list (models construct theirs deterministically). Reading
// is two steps, as for a WAL record: CheckParams holds every field against
// the bytes present, DecodeParams then cannot fail — so a refused blob
// leaves the parameters as they were.
const (
	paramsMagic     = "APNN"
	paramsVersion   = 1
	paramsHeadBytes = 12 // magic | version | count
	tensorHeadBytes = 8  // rows | cols
)

var le = binary.LittleEndian

// appendValues appends the blob of values to buf.
func appendValues(buf []byte, values []*tensor.Matrix) []byte {
	buf = append(buf, paramsMagic...)
	buf = le.AppendUint32(buf, paramsVersion)
	buf = le.AppendUint32(buf, uint32(len(values)))
	for _, v := range values {
		buf = le.AppendUint32(buf, uint32(v.Rows))
		buf = le.AppendUint32(buf, uint32(v.Cols))
		buf = tensor.AppendLE(buf, v.Data)
	}
	return buf
}

// SaveParams writes the parameter values to w.
func SaveParams(w io.Writer, params []*Tensor) error {
	values := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		values[i] = p.W
	}
	if _, err := w.Write(appendValues(nil, values)); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	return nil
}

// CheckParams validates the blob at the head of b against params' shapes
// without allocating or touching params, and returns the blob's length.
func CheckParams(b []byte, params []*Tensor) (int, error) {
	if len(b) >= 4 && string(b[:4]) != paramsMagic {
		return 0, fmt.Errorf("nn: load params: bad magic %q", b[:4])
	}
	if len(b) < paramsHeadBytes {
		return 0, fmt.Errorf("nn: load params: %w", io.ErrUnexpectedEOF)
	}
	if v := le.Uint32(b[4:]); v != paramsVersion {
		return 0, fmt.Errorf("nn: load params: unsupported version %d", v)
	}
	if count := le.Uint32(b[8:]); int64(count) != int64(len(params)) {
		return 0, fmt.Errorf("nn: load params: file has %d tensors, model has %d", count, len(params))
	}
	o := paramsHeadBytes
	for i, p := range params {
		if len(b)-o < tensorHeadBytes {
			return 0, fmt.Errorf("nn: load param %d: %w", i, io.ErrUnexpectedEOF)
		}
		rows, cols := le.Uint32(b[o:]), le.Uint32(b[o+4:])
		if int64(rows) != int64(p.W.Rows) || int64(cols) != int64(p.W.Cols) {
			return 0, fmt.Errorf("nn: load param %d: file shape %dx%d, model shape %dx%d",
				i, rows, cols, p.W.Rows, p.W.Cols)
		}
		o += tensorHeadBytes
		if len(b)-o < 4*len(p.W.Data) {
			return 0, fmt.Errorf("nn: load param %d: %w", i, io.ErrUnexpectedEOF)
		}
		o += 4 * len(p.W.Data)
	}
	return o, nil
}

// DecodeParams fills params from a blob CheckParams accepted for them.
func DecodeParams(b []byte, params []*Tensor) {
	o := paramsHeadBytes
	for _, p := range params {
		o += tensorHeadBytes
		tensor.DecodeLE(p.W.Data, b[o:])
		o += 4 * len(p.W.Data)
	}
}

// LoadParams reads exactly one SaveParams blob from r into params.
func LoadParams(r io.Reader, params []*Tensor) error {
	size := paramsHeadBytes
	for _, p := range params {
		size += tensorHeadBytes + 4*len(p.W.Data)
	}
	buf := make([]byte, size)
	n, err := io.ReadFull(r, buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("nn: load params: %w", err)
	}
	// A short read fails the check, which says what is wrong with the bytes
	// that did arrive: a foreign file is "bad magic", not "EOF".
	if _, err := CheckParams(buf[:n], params); err != nil {
		return err
	}
	DecodeParams(buf, params)
	return nil
}
