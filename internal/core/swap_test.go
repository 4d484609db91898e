package core

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"apan/internal/nn"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// setParamValues writes vals into the model's own parameter tensors.
func setParamValues(m *Model, vals []*tensor.Matrix) {
	for i, p := range m.Params() {
		copy(p.W.Data, vals[i].Data)
	}
}

// cloneParamValues deep-copies the model's current own parameter values.
func cloneParamValues(m *Model) []*tensor.Matrix {
	params := m.Params()
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = p.W.Clone()
	}
	return out
}

// TestSwapParamsChurn is the no-torn-params stress test: readers hammer
// Score/Embed/Explain while a writer rapidly alternates between two
// published parameter sets. Every observed score vector must bitwise equal
// the precomputed output of exactly one of the two sets — never a mix — and
// the Pending's pinned version must identify that set; likewise every
// Explanation's weights must equal a one-node encode under the set its
// ParamVersion names. Run under -race in CI to cover the memory-model side
// as well.
func TestSwapParamsChurn(t *testing.T) {
	ds := tinyData(11)
	cfg := tinyConfig(ds.NumNodes)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EvalStream(ds.Events[:200], nil)
	batch := ds.Events[200:230]

	// Two distinguishable parameter sets: B = A with every value nudged.
	aVals := cloneParamValues(m)
	bVals := make([]*tensor.Matrix, len(aVals))
	for i, v := range aVals {
		bVals[i] = v.Clone()
		for j := range bVals[i].Data {
			bVals[i].Data[j] += 1e-3
		}
	}

	// Precompute each set's scores on the frozen runtime state (Score has
	// no side effects, so state never moves during this test). Publish
	// order fixes the version parity: A on even versions, B on odd.
	publish := func(vals []*tensor.Matrix) *nn.ParamSet {
		setParamValues(m, vals)
		ps, err := m.SwapParams(m.Params())
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	scoreNow := func() []float32 { return m.Score(batch, new(Pending)) }
	// Explain's reference: a one-node encode of the first batch node with
	// mail, at its newest mail, under each set.
	var probe tgraph.NodeID
	var probeTime float64
	ok := false
	for i := 0; i < len(batch) && !ok; i++ {
		probe = batch[i].Src
		probeTime, ok = newestMail(m, probe)
	}
	if !ok {
		t.Fatal("no batch source has mail")
	}
	explainRef := func() *nn.Attention {
		return referenceAttention(m, []tgraph.NodeID{probe}, []float64{probeTime})
	}
	psA := publish(aVals)
	scoresA, attA := scoreNow(), explainRef()
	psB := publish(bVals)
	scoresB, attB := scoreNow(), explainRef()
	parityA := psA.Version() % 2
	if psB.Version()%2 == parityA {
		t.Fatalf("version parity did not alternate: %d then %d", psA.Version(), psB.Version())
	}
	for i := range scoresA {
		if scoresA[i] == scoresB[i] {
			t.Fatalf("score %d identical across sets; churn test cannot discriminate", i)
		}
	}
	if attA.Weight(0, 0, 0) == attB.Weight(0, 0, 0) {
		t.Fatal("probe attention identical across sets; churn test cannot discriminate")
	}

	const swaps = 300
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < swaps; i++ {
			if i%2 == 0 {
				publish(aVals)
			} else {
				publish(bVals)
			}
		}
	}()

	readers := 4
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var p Pending
			for !stop.Load() {
				m.Score(batch, &p)
				var want []float32
				if p.ParamVersion()%2 == parityA {
					want = scoresA
				} else {
					want = scoresB
				}
				for i := range want {
					if math.Float32bits(p.Scores[i]) != math.Float32bits(want[i]) {
						select {
						case errs <- "torn or mixed parameter read: score does not match the pinned version":
						default:
						}
						return
					}
				}
				if rng.Intn(4) == 0 {
					m.Embed([]tgraph.NodeID{batch[0].Src, batch[1].Src, batch[2].Src},
						[]float64{batch[0].Time, batch[1].Time, batch[2].Time})
				}
				if rng.Intn(4) == 0 {
					ex, ok := m.Explain(probe)
					want := attB
					if ok && ex.ParamVersion%2 == parityA {
						want = attA
					}
					if !ok || ex.Time != probeTime || !sameAttentionRow(t, ex, want, 0) {
						select {
						case errs <- "Explain does not match a one-node encode at its reported version":
						default:
						}
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestQuickPublishedParamsSaveLoadRoundTrip: SaveParams serializes the
// published set; loading it into a fresh model must publish a bitwise-equal
// set (fingerprints and every value), for arbitrary perturbations.
func TestQuickPublishedParamsSaveLoadRoundTrip(t *testing.T) {
	ds := tinyData(1)
	cfg := tinyConfig(ds.NumNodes)
	f := func(seed int64) bool {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, p := range m.Params() {
			for j := range p.W.Data {
				p.W.Data[j] += float32(rng.NormFloat64())
			}
		}
		if _, err := m.SwapParams(m.Params()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.SaveParams(&buf); err != nil {
			t.Log(err)
			return false
		}
		m2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.LoadParams(&buf); err != nil {
			t.Log(err)
			return false
		}
		a, b := m.CurrentParams(), m2.CurrentParams()
		if a.Fingerprint() != b.Fingerprint() {
			t.Logf("fingerprint %016x vs %016x", a.Fingerprint(), b.Fingerprint())
			return false
		}
		for i := 0; i < a.NumTensors(); i++ {
			av, bv := a.Value(i), b.Value(i)
			for j := range av.Data {
				if math.Float32bits(av.Data[j]) != math.Float32bits(bv.Data[j]) {
					t.Logf("tensor %d elem %d: %v vs %v", i, j, av.Data[j], bv.Data[j])
					return false
				}
			}
		}
		return true
	}
	qc := &quick.Config{MaxCount: 10}
	if testing.Short() {
		qc.MaxCount = 3
	}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// TestSwapParamsIncrementalPublish: SwapParams must snapshot incrementally
// against the published set — a publish that touched one tensor clones only
// that tensor and aliases the rest, and a publish that touched nothing
// aliases everything — while serving output and the torn-params re-hash stay
// identical to a full-clone publish.
func TestSwapParamsIncrementalPublish(t *testing.T) {
	ds := tinyData(13)
	m, err := New(tinyConfig(ds.NumNodes))
	if err != nil {
		t.Fatal(err)
	}
	m.EvalStream(ds.Events[:200], nil)
	batch := ds.Events[200:220]

	ps0 := m.CurrentParams()
	// Touch only the first parameter tensor, as a partial optimizer step would.
	m.Params()[0].W.Data[0] += 0.25
	ps1, err := m.SwapParams(m.Params())
	if err != nil {
		t.Fatal(err)
	}
	if ps1.Value(0) == ps0.Value(0) {
		t.Fatal("touched tensor aliased to the previous set")
	}
	for i := 1; i < ps1.NumTensors(); i++ {
		if ps1.Value(i) != ps0.Value(i) {
			t.Fatalf("untouched tensor %d cloned instead of aliased", i)
		}
	}
	if ps1.Fingerprint() != ps1.RecomputeFingerprint() {
		t.Fatal("incremental publish fails the torn-params re-hash")
	}
	if ps1.Fingerprint() != nn.NewParamSet(ps1.Version(), m.Params()).Fingerprint() {
		t.Fatal("incremental publish fingerprint differs from a full clone")
	}

	// A no-op publish aliases every tensor of the previous set.
	ps2, err := m.SwapParams(m.Params())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ps2.NumTensors(); i++ {
		if ps2.Value(i) != ps1.Value(i) {
			t.Fatalf("no-op publish cloned tensor %d", i)
		}
	}
	if ps2.Version() <= ps1.Version() || ps2.Fingerprint() != ps1.Fingerprint() {
		t.Fatalf("no-op publish: version %d->%d fingerprint %016x vs %016x",
			ps1.Version(), ps2.Version(), ps1.Fingerprint(), ps2.Fingerprint())
	}

	// The aliased version serves: scores match a model restored from ps2.
	var scored Pending
	m.Score(batch, &scored)
	if scored.ParamVersion() != ps2.Version() {
		t.Fatalf("serving version %d, want %d", scored.ParamVersion(), ps2.Version())
	}
}

// TestSwapParamsTakesEffect: after a publish, serving scores must change,
// the version must advance, and the previously obtained set must stay
// bitwise intact (copy-on-write isolation from further training steps).
func TestSwapParamsTakesEffect(t *testing.T) {
	ds := tinyData(9)
	m, err := New(tinyConfig(ds.NumNodes))
	if err != nil {
		t.Fatal(err)
	}
	m.EvalStream(ds.Events[:200], nil)
	batch := ds.Events[200:220]

	v0 := m.ParamVersion()
	ps0 := m.CurrentParams()
	var scored Pending
	before := append([]float32(nil), m.Score(batch, &scored)...)
	if scored.ParamVersion() != v0 {
		t.Fatalf("inference pinned version %d, current %d", scored.ParamVersion(), v0)
	}

	for _, p := range m.Params() {
		for j := range p.W.Data {
			p.W.Data[j] += 0.01
		}
	}
	ps1, err := m.SwapParams(m.Params())
	if err != nil {
		t.Fatal(err)
	}
	if ps1.Version() <= v0 || m.ParamVersion() != ps1.Version() {
		t.Fatalf("version did not advance: %d -> %d (current %d)", v0, ps1.Version(), m.ParamVersion())
	}
	if ps0.RecomputeFingerprint() != ps0.Fingerprint() {
		t.Fatal("publishing a new set mutated the previous one in place")
	}
	m.Score(batch, &scored)
	if scored.ParamVersion() != ps1.Version() {
		t.Fatalf("inference pinned stale version %d, want %d", scored.ParamVersion(), ps1.Version())
	}
	changed := false
	for i := range before {
		if before[i] != scored.Scores[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("scores unchanged after swapping perturbed parameters")
	}
}
