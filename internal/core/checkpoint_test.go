package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"apan/internal/dataset"
)

func trainedModel(t *testing.T) (*Model, *dataset.Dataset) {
	t.Helper()
	d := tinyData(21)
	m, err := New(tinyConfig(d.NumNodes))
	if err != nil {
		t.Fatal(err)
	}
	m.ResetRuntime()
	m.TrainEpoch(d.Events[:400], dataset.NewNegSampler(d.NumNodes))
	return m, d
}

func TestSaveLoadParamsRoundTrip(t *testing.T) {
	m, d := trainedModel(t)
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}

	m2, err := New(tinyConfig(d.NumNodes))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadParams(&buf); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].W.Data {
			if p1[i].W.Data[j] != p2[i].W.Data[j] {
				t.Fatalf("param %d differs after round trip", i)
			}
		}
	}
}

func TestLoadParamsShapeMismatch(t *testing.T) {
	m, d := trainedModel(t)
	var buf bytes.Buffer
	if err := m.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(d.NumNodes)
	cfg.Hidden = 64 // different architecture
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadParams(&buf); err == nil {
		t.Fatal("want shape mismatch error")
	}
}

func TestCheckpointRoundTripPreservesServing(t *testing.T) {
	m, d := trainedModel(t)
	// Warm serving state beyond training.
	m.EvalStream(d.Events[400:600], nil)

	path := filepath.Join(t.TempDir(), "model.ckpt")
	if _, err := m.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	m2, err := New(tinyConfig(d.NumNodes))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}

	// The restored replica must serve identically.
	probe := d.Events[600:650]
	var p1, p2 Pending
	s1, s2 := m.Score(probe, &p1), m2.Score(probe, &p2)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("score %d differs: %v vs %v", i, s1[i], s2[i])
		}
	}
	// And continue evolving identically.
	m.ApplyPending(&p1)
	m2.ApplyPending(&p2)
	s1, s2 = m.Score(d.Events[650:700], &p1), m2.Score(d.Events[650:700], &p2)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("post-apply score %d differs", i)
		}
	}
	if m.DB().G.NumEvents() != m2.DB().G.NumEvents() {
		t.Fatalf("graphs differ: %d vs %d events", m.DB().G.NumEvents(), m2.DB().G.NumEvents())
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	m, _ := trainedModel(t)
	if err := m.LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("want error on garbage input")
	}
	var empty bytes.Buffer
	if err := m.LoadCheckpoint(&empty); err == nil {
		t.Fatal("want error on empty input")
	}
}

func TestCheckpointNodeCountMismatch(t *testing.T) {
	// Node counts may legitimately differ across save/load since dynamic
	// admission (EnsureNodes) grows a serving model past its Config: a
	// larger checkpoint grows the loading model, a smaller one loads into
	// the larger model leaving the extra nodes cold.
	m, _ := trainedModel(t)
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	big, err := New(tinyConfig(m.Cfg.NumNodes + 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := big.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("smaller checkpoint into larger model: %v", err)
	}
	if big.NumNodes() != m.Cfg.NumNodes+5 {
		t.Fatalf("larger model shrank to %d", big.NumNodes())
	}

	grown, _ := trainedModel(t)
	grown.EnsureNodes(grown.Cfg.NumNodes + 7)
	want := grown.NumNodes()
	var gbuf bytes.Buffer
	if err := grown.SaveCheckpoint(&gbuf); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(tinyConfig(want - 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadCheckpoint(&gbuf); err != nil {
		t.Fatalf("grown checkpoint into fresh model: %v", err)
	}
	if fresh.NumNodes() != want {
		t.Fatalf("fresh model did not grow: %d, want %d", fresh.NumNodes(), want)
	}
}

func TestCheckpointPreservesMailboxOrder(t *testing.T) {
	cfg := tinyConfig(4)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(v float32) []float32 {
		f := make([]float32, 16)
		f[0] = v
		return f
	}
	// Out-of-order delivery, then checkpoint: restored readout must match.
	m.Mailbox().Deliver(0, mk(3), 3)
	m.Mailbox().Deliver(0, mk(1), 1)
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	b1 := make([]float32, 2*16)
	t1 := make([]float64, 2)
	b2 := make([]float32, 2*16)
	t2 := make([]float64, 2)
	n1 := m.Mailbox().ReadSorted(0, b1, t1)
	n2 := m2.Mailbox().ReadSorted(0, b2, t2)
	if n1 != n2 || n1 != 2 {
		t.Fatalf("counts: %d vs %d", n1, n2)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("mail contents differ after restore")
		}
	}
}
