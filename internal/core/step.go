package core

import (
	"math/rand"
	"time"

	"apan/internal/dataset"
	"apan/internal/eval"
	"apan/internal/nn"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// Plan is the node bookkeeping of one batch: every distinct node is encoded
// once (§3.2), at the latest time the batch names it, and each event's
// source, destination and negative destination point at their node's row.
// Build reuses every slice and the row map, so a long-lived plan assembles
// batch after batch without allocating.
type Plan struct {
	Nodes  []tgraph.NodeID
	Times  []float64
	SrcRow []int32
	DstRow []int32
	NegRow []int32

	// Endpoints counts the leading Nodes that are an event's src or dst:
	// the events are planned before the negatives, so these are the batch's
	// distinct endpoints in order of first appearance — the rows a WAL
	// record carries.
	Endpoints int

	rowOf map[tgraph.NodeID]int
}

// Build plans events and, when negs is non-nil, negs[i] as the negative
// destination of events[i]. The plan draws nothing itself.
func (p *Plan) Build(events []tgraph.Event, negs []tgraph.NodeID) {
	if p.rowOf == nil {
		p.rowOf = make(map[tgraph.NodeID]int, 3*len(events))
	} else {
		clear(p.rowOf)
	}
	p.Nodes, p.Times = p.Nodes[:0], p.Times[:0]
	p.SrcRow, p.DstRow, p.NegRow = p.SrcRow[:0], p.DstRow[:0], p.NegRow[:0]
	for i := range events {
		p.SrcRow = append(p.SrcRow, p.row(events[i].Src, events[i].Time))
		p.DstRow = append(p.DstRow, p.row(events[i].Dst, events[i].Time))
	}
	p.Endpoints = len(p.Nodes)
	for i, n := range negs {
		p.NegRow = append(p.NegRow, p.row(n, events[i].Time))
	}
}

// row returns (registering if new) the row of node n, keeping the row's
// query time at the max over its mentions.
func (p *Plan) row(n tgraph.NodeID, t float64) int32 {
	if r, ok := p.rowOf[n]; ok {
		if t > p.Times[r] {
			p.Times[r] = t
		}
		return int32(r)
	}
	r := len(p.Nodes)
	p.rowOf[n] = r
	p.Nodes = append(p.Nodes, n)
	p.Times = append(p.Times, t)
	return int32(r)
}

// PairLoss decodes every event's (source, destination) and (source,
// negative) pair with dec and returns the link-prediction objective APAN
// and every dynamic baseline train on, PairBCE of the two logit columns,
// with the logits.
func PairLoss(tp *nn.Tape, dec *LinkDecoder, zsrc, zdst, zneg *nn.Tensor) (loss, pos, neg *nn.Tensor) {
	pos = dec.Forward(tp, zsrc, zdst)
	neg = dec.Forward(tp, zsrc, zneg)
	return PairBCE(tp, pos, neg), pos, neg
}

// PairBCE is 0.5·(BCE(pos, 1) + BCE(neg, 0)) over two equally long logit
// columns: binary cross-entropy on each event and its sampled negative.
func PairBCE(tp *nn.Tape, pos, neg *nn.Tensor) *nn.Tensor {
	n := pos.Value().Rows
	return tp.Scale(tp.Add(tp.BCEWithLogits(pos, tp.Fill(n, 1)), tp.BCEWithLogits(neg, tp.Fill(n, 0))), 0.5)
}

// BatchResult is one link-prediction step over a batch: the mean pair loss,
// each event's positive and negative logit and the wall time of the
// forward pass. Z, set by Step, holds one embedding per plan node. The
// slices alias the step's tape and stay valid until its next call.
type BatchResult struct {
	Loss     float64
	Pos, Neg []float32
	SyncTime time.Duration
	Z        *tensor.Matrix
}

// Step is APAN's link-prediction step, shared by the offline epoch loop,
// evaluation and the online trainer: plan the batch against one negative
// per event, gather the planned nodes' state and sorted mailboxes from the
// live stores (GatherInputsInto), encode, and take the pair loss. It is the
// pass Score runs, plus a training tape: Train backpropagates on that
// reusable tape, Eval runs forward only on the pass's inference tape. The
// plan, the gather buffers and both tapes are reused from call to call. A
// Step is not safe for concurrent use.
type Step struct {
	pass

	m         *Model
	trainPool tensor.Pool
	trainTape *nn.Tape
}

// NewStep returns a step over m's stores whose training tape draws its
// dropout masks from rng.
func (m *Model) NewStep(rng *rand.Rand) *Step {
	s := &Step{m: m}
	s.init()
	s.trainTape = nn.NewReusableTrainingTape(&s.trainPool, rng)
	return s
}

// Train runs the step with enc and dec, backpropagates the loss into
// params and clips their gradient norm at clip. The caller steps its
// optimizer.
func (s *Step) Train(enc *Encoder, dec *LinkDecoder, params []*nn.Tensor, clip float64, events []tgraph.Event, negs []tgraph.NodeID) BatchResult {
	res, loss := s.forward(s.trainTape, enc, dec, events, negs)
	s.trainTape.Backward(loss)
	nn.ClipGradNorm(params, clip)
	return res
}

// Eval runs the step's forward pass with enc and dec.
func (s *Step) Eval(enc *Encoder, dec *LinkDecoder, events []tgraph.Event, negs []tgraph.NodeID) BatchResult {
	res, _ := s.forward(s.tape, enc, dec, events, negs)
	return res
}

func (s *Step) forward(tp *nn.Tape, enc *Encoder, dec *LinkDecoder, events []tgraph.Event, negs []tgraph.NodeID) (BatchResult, *nn.Tensor) {
	tp.Reset()
	p := &s.Plan
	p.Build(events, negs)
	start := time.Now()
	s.m.GatherInputsInto(&s.in, &s.ts, p.Nodes, p.Times)
	z, _ := enc.Forward(tp, &s.in)
	loss, pos, neg := PairLoss(tp, dec, tp.Gather(z, p.SrcRow), tp.Gather(z, p.DstRow), tp.Gather(z, p.NegRow))
	return BatchResult{
		Loss:     float64(loss.Value().Data[0]),
		Pos:      pos.Value().Data,
		Neg:      neg.Value().Data,
		SyncTime: time.Since(start),
		Z:        z.Value(),
	}, loss
}

// StreamResult aggregates a pass over an event stream.
type StreamResult struct {
	Loss     float64 // mean batch loss
	Accuracy float64
	AP       float64
	// MaskedAP is the AP restricted to the events selected by the mask of
	// EvalStreamMasked (NaN when no mask or no masked events) — used for the
	// inductive unseen-node evaluation of §4.1.
	MaskedAP float64
	Batches  int
	SyncHist eval.LatencyHist
	Elapsed  time.Duration
}

// RunStream is the chronological link-prediction protocol APAN and the
// stream baselines share: events in batches of batchSize; for each batch
// one negative destination per event, drawn from ns with rng (uniformly
// from [0, numNodes) when ns is nil) before step runs the batch, and ns
// observing the batch after it. mask, when non-nil, selects the events
// whose scores also feed MaskedAP.
func RunStream(events []tgraph.Event, batchSize int, ns *dataset.NegSampler, rng *rand.Rand, numNodes int, mask []bool, step func(batch []tgraph.Event, negs []tgraph.NodeID) BatchResult) StreamResult {
	var res StreamResult
	var scores, mscores []float32
	var labels, mlabels []bool
	var negs []tgraph.NodeID
	start := time.Now()
	for lo := 0; lo < len(events); lo += batchSize {
		batch := events[lo:min(lo+batchSize, len(events))]
		negs = negs[:0]
		for i := range batch {
			if ns != nil {
				negs = append(negs, ns.Sample(rng, batch[i].Dst))
			} else {
				negs = append(negs, tgraph.NodeID(rng.Intn(numNodes)))
			}
		}
		br := step(batch, negs)
		if ns != nil {
			for i := range batch {
				ns.Observe(&batch[i])
			}
		}
		res.Loss += br.Loss
		res.Batches++
		res.SyncHist.Add(br.SyncTime)
		for i := range batch {
			pos, neg := tensor.Sigmoid32(br.Pos[i]), tensor.Sigmoid32(br.Neg[i])
			scores = append(scores, pos, neg)
			labels = append(labels, true, false)
			if mask != nil && mask[lo+i] {
				mscores = append(mscores, pos, neg)
				mlabels = append(mlabels, true, false)
			}
		}
	}
	res.Elapsed = time.Since(start)
	if res.Batches > 0 {
		res.Loss /= float64(res.Batches)
	}
	res.Accuracy = eval.Accuracy(scores, labels, 0.5)
	res.AP = eval.AveragePrecision(scores, labels)
	res.MaskedAP = eval.AveragePrecision(mscores, mlabels)
	return res
}
