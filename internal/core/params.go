package core

import (
	"io"
	"math/rand"

	"apan/internal/nn"
)

// paramVersion is one published generation of the model's weights: an
// immutable nn.ParamSet plus encoder/decoder modules whose tensors are bound
// (zero-copy) to the set's values. The serving hot paths load exactly one
// paramVersion pointer per batch, so every score is attributable to exactly
// one version — a forward pass can never read a torn mix of two publishes.
type paramVersion struct {
	set *nn.ParamSet
	enc *Encoder
	dec *LinkDecoder
}

// NewForwardModules constructs the encoder/decoder pair for cfg's
// architecture — the single place the module selection (decoder variant,
// constructor wiring) lives. Used both to materialize published versions
// (weights immediately replaced by a binding) and by online trainers to
// build their private working copies, so the two can never drift apart.
func NewForwardModules(cfg Config, rng *rand.Rand) (*Encoder, *LinkDecoder) {
	enc := NewEncoder(cfg, rng)
	dec := NewLinkDecoder(cfg.EdgeDim, cfg.Hidden, cfg.Dropout, rng)
	if cfg.MLPDecoder {
		dec = NewMLPLinkDecoder(cfg.EdgeDim, cfg.Hidden, cfg.Dropout, rng)
	}
	return enc, dec
}

// newParamVersion materializes read-only forward modules over a snapshot.
// The modules are constructed in shell mode (nil rng): every parameter is a
// storage-free nn.ParamShell whose value the binding immediately replaces
// with the set's matrix, so a publish allocates module structure only —
// no weight initialization, no gradient matrices.
func (m *Model) newParamVersion(set *nn.ParamSet) (*paramVersion, error) {
	enc, dec := NewForwardModules(m.Cfg, nil)
	if err := nn.BindParams(append(enc.Params(), dec.Params()...), set); err != nil {
		return nil, err
	}
	return &paramVersion{set: set, enc: enc, dec: dec}, nil
}

// SwapParams snapshots params (copy-on-write: the caller keeps stepping its
// own tensors afterwards) into a new immutable version and atomically
// publishes it. From the next Score/Embed on, the serving path scores
// with the new weights; passes already in flight finish on the version they
// pinned at entry. params must match the model architecture tensor-for-
// tensor — publish what Params() (or a trainer's private copy of it) yields.
//
// Safe to call concurrently with serving and with other SwapParams calls;
// versions are totally ordered by the returned ParamSet.Version, and the
// published version never moves backwards: when two publishes race, the
// higher version wins regardless of which Store lands last.
func (m *Model) SwapParams(params []*nn.Tensor) (*nn.ParamSet, error) {
	// Snapshot incrementally against the currently published set: tensors
	// the trainer has not touched since the last publish are aliased, not
	// copied. prev is immutable, so aliasing is safe even if a concurrent
	// publish replaces it between the Load and the CAS below.
	var prev *nn.ParamSet
	if old := m.cur.Load(); old != nil {
		prev = old.set
	}
	set := nn.NewParamSetFrom(m.verCounter.Add(1), params, prev)
	pv, err := m.newParamVersion(set)
	if err != nil {
		return nil, err
	}
	for {
		old := m.cur.Load()
		if old != nil && old.set.Version() > set.Version() {
			// A concurrent publish with a newer version already landed;
			// keep it. The snapshot is still returned (it exists, it is
			// just never served).
			return set, nil
		}
		if m.cur.CompareAndSwap(old, pv) {
			return set, nil
		}
	}
}

// publishOwn publishes the model's own (offline-training) parameters — the
// initial version at construction and the republish after TrainEpoch or a
// parameter load mutates them.
func (m *Model) publishOwn() {
	if _, err := m.SwapParams(m.Params()); err != nil {
		// The model's own parameters always match its own architecture.
		panic("core: publish of the model's own parameters failed: " + err.Error())
	}
}

// ParamVersion returns the version of the currently published parameter
// set — what the next Score/Embed will score with.
func (m *Model) ParamVersion() uint64 { return m.cur.Load().set.Version() }

// CurrentParams returns the currently published immutable parameter set.
func (m *Model) CurrentParams() *nn.ParamSet { return m.cur.Load().set }

// SaveParams writes the currently published parameters (encoder + decoder)
// — the version the serving paths score with, which after online training
// may be newer than the model's own offline copy.
func (m *Model) SaveParams(w io.Writer) error {
	return m.CurrentParams().Save(w)
}

// LoadParams restores parameters saved by SaveParams into a model built
// with an identical Config, loading the model's own copy and publishing it
// as a new version so serving picks the loaded weights up immediately.
func (m *Model) LoadParams(r io.Reader) error {
	if err := nn.LoadParams(r, m.Params()); err != nil {
		return err
	}
	m.publishOwn()
	return nil
}
