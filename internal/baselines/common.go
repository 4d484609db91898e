// Package baselines implements every comparison method of the paper's
// evaluation (§4.3): the synchronous CTDG models TGAT, TGN, JODIE and
// DyRep; the static GNNs GAT and GraphSAGE; the graph autoencoders GAE and
// VGAE; and the random-walk family DeepWalk, Node2Vec and CTDNE. The
// dynamic models share the chronological streaming protocol of
// internal/core so results are directly comparable.
package baselines

import (
	"math/rand"
	"time"

	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/nn"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// StreamModel is the protocol shared by APAN and the dynamic baselines: a
// temporal model trained and evaluated on a chronological event stream.
type StreamModel interface {
	Name() string
	ResetRuntime()
	TrainEpoch(events []tgraph.Event, ns *dataset.NegSampler) core.StreamResult
	EvalStream(events []tgraph.Event, ns *dataset.NegSampler) core.StreamResult
	CollectStream(events []tgraph.Event, ns *dataset.NegSampler, collect func(ev *tgraph.Event, zsrc, zdst []float32)) core.StreamResult
}

// streamer is what the four stream baselines share with APAN: the
// chronological protocol (core.RunStream), the batch plan and the pair loss
// (core.PairLoss), stepped with Adam at a clip norm of 5. A model supplies
// only embed, its embeddings of a planned batch gathered per event (with
// the overlay of on-tape memory rows it computed, if any), and commit, what
// a scored batch leaves behind: memory updates and graph inserts.
type streamer struct {
	rng       *rand.Rand
	dec       *core.LinkDecoder
	batchSize int
	numNodes  int
	params    []*nn.Tensor
	opt       *nn.Adam
	embed     func(tp *nn.Tape, p *core.Plan) (zsrc, zdst, zneg *nn.Tensor, ov *Overlay)
	commit    func(ov *Overlay, events []tgraph.Event)
}

// TrainEpoch trains one chronological pass.
func (s *streamer) TrainEpoch(events []tgraph.Event, ns *dataset.NegSampler) core.StreamResult {
	return s.run(events, ns, true, nil)
}

// EvalStream evaluates link prediction without training.
func (s *streamer) EvalStream(events []tgraph.Event, ns *dataset.NegSampler) core.StreamResult {
	return s.run(events, ns, false, nil)
}

// CollectStream runs inference invoking collect per event.
func (s *streamer) CollectStream(events []tgraph.Event, ns *dataset.NegSampler, collect func(ev *tgraph.Event, zsrc, zdst []float32)) core.StreamResult {
	return s.run(events, ns, false, collect)
}

func (s *streamer) run(events []tgraph.Event, ns *dataset.NegSampler, train bool, collect func(ev *tgraph.Event, zsrc, zdst []float32)) core.StreamResult {
	var p core.Plan
	return core.RunStream(events, s.batchSize, ns, s.rng, s.numNodes, nil, func(batch []tgraph.Event, negs []tgraph.NodeID) core.BatchResult {
		p.Build(batch, negs)
		tp := nn.NewTape()
		if train {
			tp = nn.NewTrainingTape(s.rng)
		}
		// Synchronous critical path: whatever graph queries and memory
		// updates the model needs, then the decoder.
		start := time.Now()
		zsrc, zdst, zneg, ov := s.embed(tp, &p)
		loss, pos, neg := core.PairLoss(tp, s.dec, zsrc, zdst, zneg)
		syncTime := time.Since(start)
		if train {
			tp.Backward(loss)
			nn.ClipGradNorm(s.params, 5)
			s.opt.Step()
			s.opt.ZeroGrad()
		}
		if collect != nil {
			for i := range batch {
				collect(&batch[i], zsrc.Value().Row(i), zdst.Value().Row(i))
			}
		}
		s.commit(ov, batch)
		return core.BatchResult{Loss: float64(loss.Value().Data[0]), Pos: pos.Value().Data, Neg: neg.Value().Data, SyncTime: syncTime}
	})
}

// sigmoidScores converts an n×1 logit matrix into probabilities.
func sigmoidScores(logits *tensor.Matrix) []float32 {
	out := make([]float32, logits.Rows)
	for i := range out {
		out[i] = tensor.Sigmoid32(logits.Data[i])
	}
	return out
}
