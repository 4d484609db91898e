package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"apan/internal/core"
	"apan/internal/mailbox"
	"apan/internal/nn"
	"apan/internal/tensor"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

// lap accumulates the time of one layer's calls.
type lap time.Duration

func (l *lap) since(t0 time.Time) { *l += lap(time.Since(t0)) }

func (l lap) per(n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(l) / float64(unit) / float64(n)
}

// batchPlan is the benchmark's own copy of the model's per-batch node
// bookkeeping (each node encoded once, at its latest time in the batch): the
// ladder needs the node list to call the layers below InferBatch directly.
type batchPlan struct {
	rowOf          map[tgraph.NodeID]int32
	nodes          []tgraph.NodeID
	times          []float64
	srcRow, dstRow []int32
}

func (p *batchPlan) plan(events []tgraph.Event) {
	if p.rowOf == nil {
		p.rowOf = make(map[tgraph.NodeID]int32)
	}
	clear(p.rowOf)
	p.nodes, p.times, p.srcRow, p.dstRow = p.nodes[:0], p.times[:0], p.srcRow[:0], p.dstRow[:0]
	row := func(n tgraph.NodeID, t float64) int32 {
		if r, ok := p.rowOf[n]; ok {
			p.times[r] = max(p.times[r], t)
			return r
		}
		r := int32(len(p.nodes))
		p.rowOf[n] = r
		p.nodes = append(p.nodes, n)
		p.times = append(p.times, t)
		return r
	}
	for _, ev := range events {
		p.srcRow = append(p.srcRow, row(ev.Src, ev.Time))
		p.dstRow = append(p.dstRow, row(ev.Dst, ev.Time))
	}
}

// runLadder is the layer ladder: one goroutine times the public calls of
// each layer on the same batches, parents and their children side by side,
// so that a layer's self time is its own time minus its children's. The
// nesting it measures:
//
//	infer  (Model.InferBatch)            on twin a
//	  gather  (Model.GatherInputsInto)     on a, before the batch is applied
//	    state.read, mailbox.read           on a's stores
//	  encode  (Encoder.Forward)            own encoder, a's gathered input
//	    nn.mha, nn.timeenc, tensor.gemm    at that input's shapes
//	  decode  (Tape.Gather ×2 + LinkDecoder.Forward)
//	apply  (Model.ApplyInference)        on twin a, no log attached
//	  state.write                          on twin b's store
//	  propagate (Propagator.ProcessBatch)  standalone propagator over b
//	    tgraph.khop, tgraph.add, mailbox.deliver   on a's graph / scratch stores
//	wal.commit (Log.Begin + Commit.Wait) on a scratch log, then its replay
//
// a and b are the warmed models of the run's two rigs: built from the same
// seed, fed the same stream, idle by now. b is kept in step with a through
// Embed + Set + ProcessBatch, which is ApplyInference taken apart.
func runLadder(a, b *core.Model, stream []tgraph.Event, size int, sz sizes, seed int64, dir string, budget time.Duration) (map[string]float64, error) {
	cfg := a.Cfg
	d, slots := cfg.EdgeDim, cfg.Slots
	rng := rand.New(rand.NewSource(seed))
	enc, dec := core.NewForwardModules(cfg, rng)
	timeEnc := nn.NewTimeEncoder(d, rng)
	var pool, pool2 tensor.Pool
	tp, tp2 := nn.NewInferenceTape(&pool), nn.NewInferenceTape(&pool2)
	prop := core.NewPropagator(cfg, b.DB(), b.Mailbox())
	scratchGraph := core.NewGraphStore(cfg)
	scratchMail := mailbox.NewSharded(a.NumNodes(), slots, d, cfg.Shards)
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "ladder-wal"), Policy: wal.SyncInterval})
	if err != nil {
		return nil, err
	}
	defer log.Close()

	// tensor.MatMul is timed at the encoder's three shapes — key/value
	// projection (B·m×d · d×d), query/output projection (B×d · d×d) and the
	// MLP's first layer (B×d · d×h) — on the batch's own gathered mails and
	// states, because the kernel skips zero blocks and empty mail slots are
	// zero. The rate is computed from the shapes, not counted.
	wDD, wDH := tensor.New(d, d), tensor.New(d, cfg.Hidden)
	wDD.RandN(rng, 1)
	wDH.RandN(rng, 1)
	gemmOut := tensor.New(2*size*slots, d)
	view := func(rows, cols int) *tensor.Matrix {
		return tensor.FromSlice(rows, cols, gemmOut.Data[:rows*cols])
	}

	var (
		plan                             batchPlan
		in                               core.EncodeInput
		ts                               []float64
		sc                               tgraph.KHopScratch
		zbuf                             = make([]float32, d)
		mbuf                             = make([]float32, slots*d)
		tbuf                             = make([]float64, slots)
		seeds                            [2]tgraph.NodeID
		events, nodes, batches           int
		gemmFlops                        float64
		infer, gather, encode, decode    lap
		apply, propagate, commit         lap
		mha, timeenc, gemm               lap
		stRead, stWrite, mbRead, mbWrite lap
		khop, add                        lap
	)
	start := time.Now()
	for len(stream) >= size && events < sz.ladderBatches*sz.batch && (batches < 3 || time.Since(start) < budget) {
		batch := stream[:size]
		stream = stream[size:]
		plan.plan(batch)
		nb := len(plan.nodes)

		t0 := time.Now()
		inf := a.InferBatch(batch)
		infer.since(t0)

		t0 = time.Now()
		a.GatherInputsInto(&in, &ts, plan.nodes, plan.times)
		gather.since(t0)
		t0 = time.Now()
		for _, n := range plan.nodes {
			a.State().CopyTo(n, zbuf)
		}
		stRead.since(t0)
		t0 = time.Now()
		for _, n := range plan.nodes {
			a.Mailbox().ReadSorted(n, mbuf, tbuf)
		}
		mbRead.since(t0)

		tp.Reset()
		t0 = time.Now()
		z, _ := enc.Forward(tp, &in)
		encode.since(t0)
		t0 = time.Now()
		dec.Forward(tp, tp.Gather(z, plan.srcRow), tp.Gather(z, plan.dstRow))
		decode.since(t0)

		tp2.Reset()
		q, kv := tp2.Input(in.ZPrev), tp2.Input(in.Mails)
		t0 = time.Now()
		tp2.MaskedMHA(q, kv, kv, cfg.Heads, in.Counts)
		mha.since(t0)
		t0 = time.Now()
		tp2.TimeEncode(in.DTs, timeEnc.Omega, timeEnc.Phi)
		timeenc.since(t0)
		t0 = time.Now()
		tensor.MatMul(view(nb*slots, d), in.Mails, wDD)
		tensor.MatMul(view(nb, d), in.ZPrev, wDD)
		tensor.MatMul(view(nb, cfg.Hidden), in.ZPrev, wDH)
		gemm.since(t0)
		gemmFlops += 2 * float64(nb) * float64(d) * float64(slots*d+d+cfg.Hidden)

		t0 = time.Now()
		a.ApplyInference(inf)
		apply.since(t0)
		inf.Release()

		zb := b.Embed(plan.nodes, plan.times)
		t0 = time.Now()
		for i, ev := range batch {
			b.State().Set(ev.Src, zb.Row(int(plan.srcRow[i])), ev.Time)
			b.State().Set(ev.Dst, zb.Row(int(plan.dstRow[i])), ev.Time)
		}
		stWrite.since(t0)
		t0 = time.Now()
		prop.ProcessBatch(batch, b.State())
		propagate.since(t0)

		t0 = time.Now()
		for _, ev := range batch {
			seeds[0], seeds[1] = ev.Src, ev.Dst
			tgraph.KHopMostRecentInto(a.DB().G, &sc, seeds[:], ev.Time, cfg.Neighbors, 1)
		}
		khop.since(t0)
		t0 = time.Now()
		for _, ev := range batch {
			scratchGraph.AddEvent(ev)
		}
		add.since(t0)
		t0 = time.Now()
		for i, n := range plan.nodes {
			scratchMail.Deliver(n, zb.Row(i), plan.times[i])
		}
		mbWrite.since(t0)

		t0 = time.Now()
		werr := log.Begin(batch).Wait()
		commit.since(t0)
		if werr != nil {
			return nil, fmt.Errorf("ladder: scratch log: %w", werr)
		}

		events += len(batch)
		nodes += nb
		batches++
	}
	if batches == 0 {
		return nil, fmt.Errorf("ladder: no batch of %d events left in the stream", size)
	}

	var replay lap
	t0 := time.Now()
	err = log.Replay(0, func(uint64, []tgraph.Event) error { return nil })
	replay.since(t0)
	if err != nil {
		return nil, fmt.Errorf("ladder: replay: %w", err)
	}
	walStats := log.Stats()

	ckpt := filepath.Join(dir, "ladder.ckpt")
	if _, err := a.Checkpoint(ckpt); err != nil {
		return nil, err
	}
	fresh, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	var ckptLoad lap
	t0 = time.Now()
	err = fresh.LoadCheckpointFile(ckpt)
	ckptLoad.since(t0)
	if err != nil {
		return nil, err
	}

	us, ns := time.Microsecond, time.Nanosecond
	return map[string]float64{
		"core.infer_us_per_event":      infer.per(events, us),
		"core.infer_self_us_per_event": (infer - gather - encode - decode).per(events, us),
		"core.gather_us_per_event":     gather.per(events, us),
		"core.encode_us_per_event":     encode.per(events, us),
		"core.decode_us_per_event":     decode.per(events, us),
		"core.apply_us_per_event":      apply.per(events, us),
		"core.propagate_us_per_event":  propagate.per(events, us),
		"core.ckpt_load_ms":            ckptLoad.per(1, time.Millisecond),
		"nn.mha_us_per_event":          mha.per(events, us),
		"nn.timeenc_us_per_event":      timeenc.per(events, us),
		"tensor.gemm_gflops":           gemmFlops / max(float64(gemm), 1), // flop/ns
		"state.read_ns_per_node":       stRead.per(nodes, ns),
		"state.write_ns_per_node":      stWrite.per(2*events, ns),
		"mailbox.read_ns_per_node":     mbRead.per(nodes, ns),
		"mailbox.deliver_ns_per_mail":  mbWrite.per(nodes, ns),
		"tgraph.khop_us_per_event":     khop.per(events, us),
		"tgraph.add_ns_per_event":      add.per(events, ns),
		"wal.commit_us_per_batch":      commit.per(batches, us),
		"wal.bytes_per_event":          float64(walStats.DurableBytes) / float64(events),
		"wal.replay_us_per_event":      replay.per(events, us),
		"ladder.batches":               float64(batches),
	}, nil
}
