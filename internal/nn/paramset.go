package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"apan/internal/tensor"
)

// ParamSet is an immutable, versioned snapshot of a model's parameter
// values — the unit of hot-swappable weights in the online-learning design.
// A trainer steps a private mutable copy of the parameters and publishes by
// snapshotting them into a fresh ParamSet (copy-on-write); the serving path
// atomically loads one ParamSet pointer per batch, so a forward pass can
// never observe a torn mix of two versions.
//
// Immutability is a contract, not an enforcement: the value matrices are
// reachable through Value and Bind, and the inference modules bound to them
// only ever read. Fingerprint is computed once at construction, so a stray
// in-place mutation of a published set is detectable by re-hashing (see
// RecomputeFingerprint) — the scenario harness's no-torn-params invariant
// does exactly that.
type ParamSet struct {
	version uint64
	values  []*tensor.Matrix
	fp      uint64
}

// NewParamSet deep-copies the current values of params into an immutable
// snapshot tagged with version.
func NewParamSet(version uint64, params []*Tensor) *ParamSet {
	values := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		values[i] = p.W.Clone()
	}
	ps := &ParamSet{version: version, values: values}
	ps.fp = ps.RecomputeFingerprint()
	return ps
}

// NewParamSetFrom snapshots params incrementally against a previously
// published set: tensors whose values are bitwise-identical to prev's alias
// prev's (immutable) matrices instead of being cloned, so a publish costs
// O(tensors the trainer actually touched) in copied bytes instead of the
// full model size. The fingerprint is still recomputed over every value, so
// the no-torn-params invariant (Fingerprint == RecomputeFingerprint) is
// exactly as strong as with a full clone. A nil prev, or a prev with a
// different tensor layout, degrades to the full deep copy of NewParamSet.
func NewParamSetFrom(version uint64, params []*Tensor, prev *ParamSet) *ParamSet {
	if prev == nil || len(prev.values) != len(params) {
		return NewParamSet(version, params)
	}
	values := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		old := prev.values[i]
		if old.Rows == p.W.Rows && old.Cols == p.W.Cols && bitsEqual(old.Data, p.W.Data) {
			values[i] = old
			continue
		}
		values[i] = p.W.Clone()
	}
	ps := &ParamSet{version: version, values: values}
	ps.fp = ps.RecomputeFingerprint()
	return ps
}

// bitsEqual compares two float32 slices bit-for-bit (NaN == NaN, 0 != −0),
// the equality that matters for fingerprint stability.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// Version returns the snapshot's publish version.
func (ps *ParamSet) Version() uint64 { return ps.version }

// NumTensors returns the number of parameter tensors in the set.
func (ps *ParamSet) NumTensors() int { return len(ps.values) }

// Value returns the i-th parameter matrix. Callers must treat it as
// read-only; it is shared by every module bound to this set.
func (ps *ParamSet) Value(i int) *tensor.Matrix { return ps.values[i] }

// Fingerprint returns the FNV-1a hash over every value computed when the
// set was created. Because the set is immutable, RecomputeFingerprint must
// always agree with it; a divergence means a published set was mutated in
// place — the torn-parameter bug the versioning scheme exists to prevent.
func (ps *ParamSet) Fingerprint() uint64 { return ps.fp }

// RecomputeFingerprint re-hashes the current values (shapes included).
func (ps *ParamSet) RecomputeFingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range ps.values {
		binary.LittleEndian.PutUint64(b[:], uint64(m.Rows)<<32|uint64(uint32(m.Cols)))
		h.Write(b[:])
		for _, v := range m.Data {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	return h.Sum64()
}

// shapeCheck validates that params matches the set tensor-for-tensor.
func (ps *ParamSet) shapeCheck(params []*Tensor) error {
	if len(params) != len(ps.values) {
		return fmt.Errorf("nn: param set has %d tensors, model has %d", len(ps.values), len(params))
	}
	for i, p := range params {
		v := ps.values[i]
		if p.W.Rows != v.Rows || p.W.Cols != v.Cols {
			return fmt.Errorf("nn: param %d shape %dx%d, set has %dx%d", i, p.W.Rows, p.W.Cols, v.Rows, v.Cols)
		}
	}
	return nil
}

// CopyTo copies the snapshot's values into params (a trainer seeding or
// rolling back its private working copy). Shapes must match.
func (ps *ParamSet) CopyTo(params []*Tensor) error {
	if err := ps.shapeCheck(params); err != nil {
		return err
	}
	for i, p := range params {
		copy(p.W.Data, ps.values[i].Data)
	}
	return nil
}

// BindParams aliases each tensor's value matrix to the set's — the zero-copy
// read binding used to materialize inference modules over a published
// snapshot. The bound tensors must never be written through (no optimizer
// steps, no in-place updates); gradients, if any, accumulate in the tensors'
// own G matrices and never touch the set.
func BindParams(params []*Tensor, ps *ParamSet) error {
	if err := ps.shapeCheck(params); err != nil {
		return err
	}
	for i, p := range params {
		p.W = ps.values[i]
	}
	return nil
}

// Save writes the snapshot's values in the versioned APNN binary format —
// the same layout SaveParams produces, so a published set and a parameter
// list are interchangeable on disk.
func (ps *ParamSet) Save(w io.Writer) error {
	if _, err := w.Write(ps.AppendTo(nil)); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	return nil
}

// AppendTo appends what Save writes to buf.
func (ps *ParamSet) AppendTo(buf []byte) []byte { return appendValues(buf, ps.values) }
