//go:build amd64 && !apan_noasm

package tensor_test

import (
	"testing"

	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/tensor"
)

// TestModelParityAsmVsGoGemm is the GEMM contract seen from the model: one
// stream through two identically seeded models, one scoring and applying
// with the AVX2 body, the other with MatMulAcc forced to the Go reference.
// Every score must be bitwise equal and so must the RuntimeDigest (node
// state, mailboxes, graph) after 2,000 events — the equality every scenario,
// recovery and replica digest in the repository relies on. The geometry is
// the serving default (172-dimensional features, hidden 80), so the 32-wide
// tiles, the masked column tail (172 = 5·32 + 8 + 4) and the n = 1 decoder
// output are all on the path.
func TestModelParityAsmVsGoGemm(t *testing.T) {
	if !tensor.HasAsmGemm() {
		t.Skip("no AVX2 on this machine: MatMulAcc already is the Go reference")
	}
	ds := dataset.Wikipedia(dataset.Config{Scale: 0.02, Seed: 3})
	newModel := func() *core.Model {
		m, err := core.New(core.Config{NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	asm, ref := newModel(), newModel()
	const events, batch = 2000, 200
	var got, want core.Pending
	for lo := 0; lo < events; lo += batch {
		evs := ds.Events[lo : lo+batch]
		asm.Score(evs, &got)
		asm.ApplyPending(&got)

		restore := tensor.UseGoGemm()
		ref.Score(evs, &want)
		ref.ApplyPending(&want)
		restore()

		for i := range want.Scores {
			if got.Scores[i] != want.Scores[i] {
				t.Fatalf("event %d: score %v with the AVX2 GEMM, %v with the Go reference", lo+i, got.Scores[i], want.Scores[i])
			}
		}
	}
	if a, r := asm.RuntimeDigest(), ref.RuntimeDigest(); a != r {
		t.Fatalf("RuntimeDigest after %d events: %x with the AVX2 GEMM, %x with the Go reference", events, a, r)
	}
}
