package core

import (
	"math/rand"
	"testing"

	"apan/internal/nn"
	"apan/internal/state"
	"apan/internal/tgraph"
)

func TestReadInputsGathersSortedMailboxes(t *testing.T) {
	st := state.New(4, 2, 3)
	st.Set(1, []float32{7, 8, 9}, 5)
	st.Deliver(1, []float32{3, 3, 3}, 3)
	st.Deliver(1, []float32{1, 1, 1}, 1) // out of order

	in := ReadInputs(st, []tgraph.NodeID{1, 2}, []float64{10, 10})
	if in.ZPrev.At(0, 0) != 7 || in.ZPrev.At(1, 0) != 0 {
		t.Fatalf("zprev: %v", in.ZPrev.Data)
	}
	if in.Counts[0] != 2 || in.Counts[1] != 0 {
		t.Fatalf("counts: %v", in.Counts)
	}
	// Slot 0 of node 1's block must be the t=1 mail after sorting.
	if in.Mails.At(0, 0) != 1 || in.Mails.At(1, 0) != 3 {
		t.Fatalf("mail order: %v", in.Mails.Data[:6])
	}
	// Time deltas relative to the query time.
	if in.DTs[0] != 9 || in.DTs[1] != 7 {
		t.Fatalf("dts: %v", in.DTs[:2])
	}
	// Empty node: zero rows, zero dts.
	if in.DTs[2] != 0 || in.Mails.At(2, 0) != 0 {
		t.Fatal("empty mailbox should contribute zeros")
	}
}

func TestEncoderDeterministicOnInferenceTape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := tinyConfig(4)
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(cfg, rng)
	st := state.New(4, cfg.Slots, 16)
	mail := make([]float32, 16)
	mail[2] = 1
	st.Deliver(0, mail, 1)
	in := ReadInputs(st, []tgraph.NodeID{0}, []float64{2})

	var prev []float32
	for i := 0; i < 3; i++ {
		tp := nn.NewTape()
		z, att := enc.Forward(tp, in)
		if att == nil {
			t.Fatal("no attention record")
		}
		cur := append([]float32(nil), z.Value().Row(0)...)
		if prev != nil {
			for j := range cur {
				if cur[j] != prev[j] {
					t.Fatal("inference not deterministic")
				}
			}
		}
		prev = cur
	}
}

func TestEncoderDropoutOnlyInTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := tinyConfig(4)
	cfg.Dropout = 0.5
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(cfg, rng)
	st := state.New(4, cfg.Slots, 16)
	mail := make([]float32, 16)
	mail[0] = 1
	st.Deliver(0, mail, 1)
	in := ReadInputs(st, []tgraph.NodeID{0}, []float64{2})

	// Two training passes should differ (dropout masks), inference passes
	// must not.
	t1, _ := encOnce(enc, in, true, 1)
	t2, _ := encOnce(enc, in, true, 2)
	same := true
	for j := range t1 {
		if t1[j] != t2[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("training passes identical despite dropout")
	}
}

func encOnce(enc *Encoder, in *EncodeInput, training bool, seed int64) ([]float32, []float32) {
	tp := nn.NewTape()
	if training {
		tp = nn.NewTrainingTape(rand.New(rand.NewSource(seed)))
	}
	z, _ := enc.Forward(tp, in)
	return append([]float32(nil), z.Value().Row(0)...), nil
}
