package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"apan/internal/dataset"
	"apan/internal/eval"
	"apan/internal/gdb"
	"apan/internal/mailbox"
	"apan/internal/nn"
	"apan/internal/state"
	"apan/internal/tensor"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

// Model is the full APAN system: attention encoder and link decoder on the
// synchronous path, mail propagator on the asynchronous path, with the
// node-state and mailbox stores in between.
//
// Concurrency: the node-state and mailbox stores are sharded and
// lock-striped (Config.Shards), so any number of goroutines may run
// InferBatch, Embed and ApplyInference concurrently — readers and writers
// contend only when they touch the same shard. The temporal graph, which
// only the asynchronous link touches, is one store behind one mutex, so
// applies serialize there. Parameters are versioned: the serving paths read
// an atomically published immutable snapshot (see SwapParams), so a
// background trainer can hot-swap weights while serving continues. The
// deprecated offline entry points (TrainEpoch and the Eval/Collect streams)
// mutate the model's own parameter copy in place and are not safe to run
// concurrently with each other or with SwapParams on the same tensors.
type Model struct {
	Cfg Config

	rng  *rand.Rand
	enc  *Encoder
	dec  *LinkDecoder
	st   *state.Sharded
	mbox *mailbox.Sharded
	db   *gdb.DB
	prop *Propagator
	opt  *nn.Adam

	// cur is the published parameter generation the serving hot paths score
	// with: InferBatch/Embed load it exactly once per pass, so every result
	// is attributable to one version. verCounter allocates publish versions.
	cur        atomic.Pointer[paramVersion]
	verCounter atomic.Uint64

	// storeMu is a latch, not a data lock: every per-batch operation
	// (InferBatch, ApplyInference, Embed, processBatch) holds it SHARED —
	// readers and writers alike — because per-node safety already comes from
	// the stores' shard locks. Exclusive acquisition is reserved for
	// operations that may swap the stores' backing arrays or replace the
	// graph wholesale: node admission (EnsureNodes), Reset/Restore and
	// checkpoint load. Checkpoint CUTS no longer take it exclusively — they
	// hold it shared and quiesce only the appliers via applyMu, so scoring
	// proceeds during a snapshot.
	//
	// Lock order: storeMu → applyMu → (shard locks | graphMu). Every
	// acquisition sequence is strictly nested in that order; none re-enters
	// an earlier lock, which is what makes the latch trio deadlock-free.
	storeMu sync.RWMutex

	// applyMu is the apply gate: the asynchronous link's mutators
	// (ApplyInference, processBatch's write-back span) hold it SHARED for
	// the whole batch mutation — state writes, WAL append, graph insert and
	// mail propagation as one atomic unit. A durability cut (checkpoint,
	// SnapshotRuntime, RuntimeDigest) holds it EXCLUSIVELY, so the cut
	// always lands on a batch boundary: no checkpoint can capture state
	// from batch k+1 next to a graph at batch k, and the WAL watermark it
	// pins is replayable with original batch boundaries. Scorers
	// (InferBatch, Embed, GatherInputs) never touch applyMu — a snapshot
	// pauses appliers for a memcpy, never inference.
	applyMu sync.RWMutex

	// graphMu serializes every temporal-graph access (insert + k-hop
	// queries; tgraph.Graph does no locking of its own). It also makes the
	// apply point serial: WAL Begin and the graph insert happen under it, so
	// log order equals graph order.
	graphMu sync.Mutex

	// wal, when attached, records every batch entering the graph, Begin'd
	// under graphMu immediately before the insert — the serial apply point —
	// so WAL order equals graph order for any worker count. Guarded by
	// graphMu.
	wal *wal.Log

	// explainMu guards the per-pass attention record below, which Explain
	// reads and every forward pass overwrites. The record is a copy: the
	// attention weights a pass produces live in pooled tape storage that is
	// recycled when the pass's workspace is released, so setExplain copies
	// them into these model-owned buffers (grown once, then reused).
	explainMu sync.Mutex
	explain   explainRec

	// wsMu/wsFree recycle inference workspaces (gather buffers + reusable
	// tape + score output) across InferBatch/Embed calls and goroutines.
	// This is a plain mutex-guarded stack, NOT a sync.Pool: a sync.Pool's
	// per-P private slots are invisible to Gets on other Ps and its contents
	// are discarded across GC cycles, so under GOMAXPROCS > 1 a steady
	// stream of concurrent scorers kept missing and constructing fresh
	// workspaces — each re-paying the full tape/matrix warm-up (the
	// infer_parallel_p4/p8 allocation regression). The stack never loses a
	// warm workspace, holds at most as many as the peak scorer concurrency,
	// and its ~ns critical section is noise next to a ms-scale forward pass.
	wsMu   sync.Mutex
	wsFree []*inferWorkspace

	// replayPlan is ReplayBatch's node bookkeeping, reused across records
	// (its map keeps its buckets); replay is single-caller by contract.
	replayPlan batchPlan

	// ev is the cold-state evictor bounding the warm working set
	// (Config.EvictMaxNodes; see evict.go). Nil when eviction is disabled —
	// the default — in which case every eviction hook is a no-op and the
	// model's behavior is bitwise unchanged.
	ev *evictor
}

// explainRec is the model-owned copy of the most recent forward pass's
// attention, sized by the pass that wrote it.
type explainRec struct {
	valid        bool
	heads, slots int
	version      uint64 // parameter version of the recording pass (0: offline)
	weights      []float32
	nodes        []tgraph.NodeID
	counts       []int
}

// New builds an APAN model with a fresh temporal graph.
func New(cfg Config) (*Model, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	return NewWithDB(cfg, gdb.New(tgraph.New(cfg.NumNodes)))
}

// NewGraphStore returns tgraph.New(cfg.NumNodes).
//
// Deprecated: kept only because the frozen benchmark calls it; the next
// benchmark PR should call tgraph.New and delete it.
func NewGraphStore(cfg Config) *tgraph.Graph { return tgraph.New(cfg.NumNodes) }

// NewWithDB builds an APAN model on top of an existing graph database
// wrapper (e.g. one with a simulated latency model).
func NewWithDB(cfg Config, db *gdb.DB) (*Model, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dec := NewLinkDecoder(cfg.EdgeDim, cfg.Hidden, cfg.Dropout, rng)
	if cfg.MLPDecoder {
		dec = NewMLPLinkDecoder(cfg.EdgeDim, cfg.Hidden, cfg.Dropout, rng)
	}
	m := &Model{
		Cfg:  cfg,
		rng:  rng,
		enc:  NewEncoder(cfg, rng),
		dec:  dec,
		st:   state.NewSharded(cfg.NumNodes, cfg.EdgeDim, cfg.Shards),
		mbox: mailbox.NewSharded(cfg.NumNodes, cfg.Slots, cfg.EdgeDim, cfg.Shards),
		db:   db,
	}
	if cfg.KeyValueMailbox {
		m.mbox.SetRule(mailbox.UpdateKeyValue)
	}
	if cfg.EvictMaxNodes > 0 {
		m.ev = newEvictor(cfg.EvictMaxNodes)
	}
	m.prop = NewPropagator(cfg, db, m.mbox)
	m.opt = nn.NewAdam(m.Params(), cfg.LR)
	m.publishOwn()
	return m, nil
}

// Name identifies the model variant by propagation depth, matching the
// labels of the paper's figures.
func (m *Model) Name() string {
	if m.Cfg.Hops == 1 {
		return "APAN-1layer"
	}
	return "APAN-2layers"
}

// Params returns every trainable tensor of the model's own parameter copy —
// the one the deprecated offline entry points step in place. The serving
// paths do not read these tensors; they read the published snapshot (see
// SwapParams/CurrentParams). Online trainers keep their own private copy and
// never touch this one.
func (m *Model) Params() []*nn.Tensor {
	return append(m.enc.Params(), m.dec.Params()...)
}

// DB exposes the underlying graph database wrapper (for accounting).
func (m *Model) DB() *gdb.DB { return m.db }

// GraphEvents returns the number of events applied to the temporal graph —
// the serving watermark — read under the graph mutex, so it is safe with
// respect to concurrent propagation.
func (m *Model) GraphEvents() int {
	m.graphMu.Lock()
	defer m.graphMu.Unlock()
	return m.db.G.NumEvents()
}

// Mailbox exposes the sharded mailbox store. Its per-node operations are
// safe to call concurrently with serving.
func (m *Model) Mailbox() *mailbox.Sharded { return m.mbox }

// State exposes the sharded node-state store. Its per-node operations are
// safe to call concurrently with serving.
func (m *Model) State() *state.Sharded { return m.st }

// Propagator exposes the asynchronous-link implementation.
func (m *Model) Propagator() *Propagator { return m.prop }

// GatherInputs reads z(t−) and the timestamp-sorted mailboxes of nodes at
// the given query times under the shared store latch — the read-only view an
// online trainer uses to build mini-batch inputs from the live streaming
// state without blocking serving (it contends only per shard, like any other
// reader). The returned bundle is freshly allocated and owned by the caller.
func (m *Model) GatherInputs(nodes []tgraph.NodeID, times []float64) *EncodeInput {
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	return ReadInputsParallel(m.st, m.mbox, nodes, times, 1)
}

// GatherInputsInto is GatherInputs reusing the caller's bundle and timestamp
// scratch across calls, so a steady-state online trainer assembles
// mini-batch inputs without allocating. All buffers are grown in place as
// needed; mail rows past each node's valid count are explicitly zeroed, so
// the bundle is indistinguishable from a freshly allocated one.
func (m *Model) GatherInputsInto(in *EncodeInput, ts *[]float64, nodes []tgraph.NodeID, times []float64) {
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	b := len(nodes)
	d := m.st.Dim()
	sl := m.mbox.Slots()
	in.Nodes = nodes
	in.Times = times
	in.ZPrev = growMatrixRaw(in.ZPrev, b, d)
	in.Mails = growMatrixRaw(in.Mails, b*sl, d)
	in.DTs = grow(in.DTs, b*sl)
	clear(in.DTs)
	in.Counts = grow(in.Counts, b)
	*ts = grow(*ts, sl)
	gatherInto(m.st, m.mbox, nodes, times, 1, in, *ts)
	// Stale data in the reused Mails rows past each node's valid count would
	// leak into the encoder (fresh gathers hand it zeros there); clear them.
	for i, c := range in.Counts[:b] {
		if c < sl {
			clear(in.Mails.Data[(i*sl+c)*d : (i+1)*sl*d])
		}
	}
}

// growMatrixRaw resizes mx to rows×cols, reusing its backing array when it
// fits. Contents are unspecified — the caller must overwrite every row it
// reads.
func growMatrixRaw(mx *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if mx == nil || cap(mx.Data) < rows*cols {
		return tensor.New(rows, cols)
	}
	mx.Rows, mx.Cols = rows, cols
	mx.Data = mx.Data[:rows*cols]
	return mx
}

// NumNodes returns the current node-ID space, which EnsureNodes may have
// grown past Cfg.NumNodes.
func (m *Model) NumNodes() int {
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	return m.Cfg.NumNodes
}

// EnsureNodes grows the node-ID space to at least n nodes, so events naming
// previously unseen IDs can be scored and propagated: the state store,
// mailbox store and temporal graph are all extended (new nodes start with
// zero state and empty mailboxes — exactly how an unseen node looks to the
// encoder, which therefore produces its inductive cold-start embedding).
// Safe to call concurrently with serving; it briefly stops the world.
// No-op when n ≤ NumNodes.
func (m *Model) EnsureNodes(n int) {
	m.storeMu.Lock()
	defer m.storeMu.Unlock()
	m.ensureNodesLocked(n)
}

func (m *Model) ensureNodesLocked(n int) {
	if n <= m.Cfg.NumNodes {
		return
	}
	m.st.Grow(n)
	m.mbox.Grow(n)
	m.db.G.Grow(n)
	m.Cfg.NumNodes = n
}

// ResetRuntime clears all streaming state — node embeddings, mailboxes and
// the temporal graph — as done at the start of every training epoch. Model
// parameters and the (possibly grown) node-ID space are kept.
func (m *Model) ResetRuntime() {
	m.storeMu.Lock()
	defer m.storeMu.Unlock()
	m.st.Reset()
	m.mbox.Reset()
	// Reset in place: the model keeps the same *Graph across runtime
	// resets, so whoever holds the graph DB keeps seeing the live graph.
	m.db.G.Reset(m.Cfg.NumNodes)
	m.db.ResetStats()
	m.resetEvictor()
}

// Snapshot captures the streaming state for later Restore (parameters are
// not included; they are shared).
type Snapshot struct {
	st   *state.ShardedSnapshot
	mb   *mailbox.ShardedSnapshot
	gcut int // number of graph events at snapshot time
}

// SnapshotRuntime captures state, mailbox and the graph watermark as one
// consistent, batch-aligned cut — without blocking inference. The store
// latch is held SHARED and the stores are cloned under shard read locks,
// so concurrent InferBatch calls proceed; only the appliers pause, for the
// duration of a memcpy-speed clone (see applyMu).
func (m *Model) SnapshotRuntime() *Snapshot {
	st, mb, events, _ := m.runtimeCut()
	return &Snapshot{st: st, mb: mb, gcut: len(events)}
}

// runtimeCut captures the durability cut every snapshot-like operation
// shares: deep copies of both stores plus the graph's event-log prefix,
// all at the same batch boundary. Scoring continues throughout — the cut
// holds the store latch shared and takes only shard READ locks — while the
// apply gate pauses the asynchronous link for the clone. The returned
// event slice is a zero-copy immutable prefix of the append-only log (see
// tgraph.EventLog); its length is the cut's watermark.
func (m *Model) runtimeCut() (st *state.ShardedSnapshot, mb *mailbox.ShardedSnapshot, events []tgraph.Event, numNodes int) {
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	numNodes = m.Cfg.NumNodes
	st = m.st.SnapshotShared()
	mb = m.mbox.SnapshotShared()
	// The exclusive apply gate above already quiesced every writer; graphMu
	// is for the read itself (the graph has no synchronization of its own).
	m.graphMu.Lock()
	g := m.db.G
	events = g.EventLog()[:g.NumEvents()]
	m.graphMu.Unlock()
	return st, mb, events, numNodes
}

// RestoreRuntime rolls the streaming state back to snap, including the
// node-ID space as of snapshot time (nodes admitted since are forgotten).
// The graph is rebuilt from its event log prefix.
func (m *Model) RestoreRuntime(snap *Snapshot) {
	m.storeMu.Lock()
	defer m.storeMu.Unlock()
	m.st.Restore(snap.st)
	m.mbox.Restore(snap.mb)
	m.Cfg.NumNodes = m.st.NumNodes()
	// Capture the replay prefix before Reset: the log is append-only and
	// Reset replaces (never overwrites) its backing array, so the captured
	// slice keeps the snapshot's events while the same *Graph is rebuilt in
	// place.
	g := m.db.G
	events := g.EventLog()[:snap.gcut]
	g.Reset(m.Cfg.NumNodes)
	for i := range events {
		g.AddEvent(events[i])
	}
	// Evictor tracking describes the pre-restore stores; drop it. Restored
	// warm nodes rejoin the LRU as the stream touches them.
	m.resetEvictor()
}

// batchPlan is the node bookkeeping for one batch of events.
type batchPlan struct {
	nodes  []tgraph.NodeID
	times  []float64
	rowOf  map[tgraph.NodeID]int
	srcRow []int32
	dstRow []int32
	negRow []int32
	negs   []tgraph.NodeID

	// endpoints counts the leading nodes that are an event's src or dst:
	// the events are planned before the negatives, so these are the batch's
	// distinct endpoints in order of first appearance — the rows a WAL
	// record carries.
	endpoints int
}

// reset readies the plan for reuse, keeping map buckets and slice capacity.
func (p *batchPlan) reset(sizeHint int) {
	if p.rowOf == nil {
		p.rowOf = make(map[tgraph.NodeID]int, sizeHint)
	} else {
		clear(p.rowOf)
	}
	p.nodes = p.nodes[:0]
	p.times = p.times[:0]
	p.srcRow = p.srcRow[:0]
	p.dstRow = p.dstRow[:0]
	p.negRow = p.negRow[:0]
	p.negs = p.negs[:0]
}

// planBatch deduplicates batch nodes (each node encoded once, §3.2) and,
// when withNegs is set, draws one negative destination per event.
func (m *Model) planBatch(events []tgraph.Event, ns *dataset.NegSampler, withNegs bool) *batchPlan {
	p := &batchPlan{}
	m.planBatchInto(p, events, ns, withNegs)
	return p
}

// planBatchInto is planBatch writing into a caller-owned (reusable) plan.
func (m *Model) planBatchInto(p *batchPlan, events []tgraph.Event, ns *dataset.NegSampler, withNegs bool) {
	p.reset(3 * len(events))
	row := func(n tgraph.NodeID, t float64) int32 {
		if r, ok := p.rowOf[n]; ok {
			if t > p.times[r] {
				p.times[r] = t
			}
			return int32(r)
		}
		r := len(p.nodes)
		p.rowOf[n] = r
		p.nodes = append(p.nodes, n)
		p.times = append(p.times, t)
		return int32(r)
	}
	for _, ev := range events {
		p.srcRow = append(p.srcRow, row(ev.Src, ev.Time))
		p.dstRow = append(p.dstRow, row(ev.Dst, ev.Time))
	}
	p.endpoints = len(p.nodes)
	if !withNegs {
		return
	}
	for _, ev := range events {
		var neg tgraph.NodeID
		if ns != nil {
			neg = ns.Sample(m.rng, ev.Dst)
		} else {
			neg = tgraph.NodeID(m.rng.Intn(m.Cfg.NumNodes))
		}
		p.negs = append(p.negs, neg)
		p.negRow = append(p.negRow, row(neg, ev.Time))
	}
}

// BatchResult reports one processed batch.
type BatchResult struct {
	Loss      float64
	PosScores []float32
	NegScores []float32
	// SyncTime is the wall time of the synchronous link only: reading
	// state/mailbox, encoder and decoder forward. Propagation and parameter
	// updates are excluded.
	SyncTime time.Duration
}

// processBatch runs one batch end to end. When train is true it also
// backpropagates and applies an optimizer step. collect, when non-nil, is
// invoked with the fresh embeddings of each event's endpoints.
func (m *Model) processBatch(events []tgraph.Event, ns *dataset.NegSampler, train bool, collect func(ev *tgraph.Event, zsrc, zdst []float32)) BatchResult {
	plan := m.planBatch(events, ns, true)

	start := time.Now()
	m.storeMu.RLock()
	in := ReadInputsParallel(m.st, m.mbox, plan.nodes, plan.times, m.Cfg.InferWorkers)
	m.storeMu.RUnlock()
	var tp *nn.Tape
	if train {
		tp = nn.NewTrainingTape(m.rng)
	} else {
		tp = nn.NewTape()
	}
	z, att := m.enc.Forward(tp, in)
	zsrc := tp.Gather(z, plan.srcRow)
	zdst := tp.Gather(z, plan.dstRow)
	zneg := tp.Gather(z, plan.negRow)
	posLogits := m.dec.Forward(tp, zsrc, zdst)
	negLogits := m.dec.Forward(tp, zsrc, zneg)
	syncTime := time.Since(start)

	n := len(events)
	ones := make([]float32, n)
	zeros := make([]float32, n)
	for i := range ones {
		ones[i] = 1
	}
	posLoss := tp.BCEWithLogits(posLogits, ones)
	negLoss := tp.BCEWithLogits(negLogits, zeros)
	loss := tp.Scale(tp.Add(posLoss, negLoss), 0.5)

	if train {
		tp.Backward(loss)
		nn.ClipGradNorm(m.Params(), 5)
		m.opt.Step()
		m.opt.ZeroGrad()
	}

	res := BatchResult{
		Loss:      float64(loss.Value().Data[0]),
		PosScores: make([]float32, n),
		NegScores: make([]float32, n),
		SyncTime:  syncTime,
	}
	for i := 0; i < n; i++ {
		res.PosScores[i] = tensor.Sigmoid32(posLogits.Value().Data[i])
		res.NegScores[i] = tensor.Sigmoid32(negLogits.Value().Data[i])
	}

	// Offline passes run on the model's own mutable parameters, outside any
	// published version — recorded as version 0.
	m.setExplain(att, plan.nodes, in.Counts, 0)

	// Post-inference mutations — state write-back (z(t) becomes z(t−) for
	// the next batch; negative nodes did not interact, so their state is
	// untouched) followed by the asynchronous link run synchronously for
	// determinism: WAL append, graph insert, mail propagation. The whole
	// span holds the apply gate shared so a concurrent checkpoint cut can
	// only land between batches, never between the state write and the
	// graph insert of one batch. The latch stays shared; each Set locks
	// only the node's shard.
	m.storeMu.RLock()
	m.applyMu.RLock()
	for i, ev := range events {
		m.st.Set(ev.Src, z.Value().Row(int(plan.srcRow[i])), ev.Time)
		m.st.Set(ev.Dst, z.Value().Row(int(plan.dstRow[i])), ev.Time)
	}
	if collect != nil {
		for i := range events {
			collect(&events[i], z.Value().Row(int(plan.srcRow[i])), z.Value().Row(int(plan.dstRow[i])))
		}
	}
	m.graphMu.Lock()
	commit := m.logBatchLocked(events, z.Value().Data[:plan.endpoints*z.Value().Cols])
	m.prop.ProcessBatch(events, m.st)
	m.graphMu.Unlock()
	m.noteTouched(events)
	m.applyMu.RUnlock()
	m.storeMu.RUnlock()
	commit.Wait() // off every model lock; error is latched in the log

	if ns != nil {
		for i := range events {
			ns.Observe(&events[i])
		}
	}
	return res
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

// runStream processes events chronologically in batches. mask, when
// non-nil, selects the events whose scores additionally feed MaskedAP.
func (m *Model) runStream(events []tgraph.Event, ns *dataset.NegSampler, train bool, collect func(ev *tgraph.Event, zsrc, zdst []float32), mask []bool) StreamResult {
	var res StreamResult
	var scores, mscores []float32
	var labels, mlabels []bool
	start := time.Now()
	bs := m.Cfg.BatchSize
	for lo := 0; lo < len(events); lo += bs {
		hi := lo + bs
		if hi > len(events) {
			hi = len(events)
		}
		br := m.processBatch(events[lo:hi], ns, train, collect)
		res.Loss += br.Loss
		res.Batches++
		res.SyncHist.Add(br.SyncTime)
		for i := range br.PosScores {
			scores = append(scores, br.PosScores[i], br.NegScores[i])
			labels = append(labels, true, false)
			if mask != nil && mask[lo+i] {
				mscores = append(mscores, br.PosScores[i], br.NegScores[i])
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

// TrainEpoch trains over one chronological pass of events, stepping the
// model's own parameter copy, and republishes the result so subsequent
// serving passes score with the trained weights. The caller is responsible
// for ResetRuntime at epoch starts.
//
// Deprecated: the offline epoch loop exists for the paper-reproduction
// benchmarks and the pre-training step of a deployment. Long-running serving
// processes should adapt with internal/train.OnlineTrainer, which steps a
// private parameter copy off the propagation path and publishes through
// SwapParams without ever blocking inference.
func (m *Model) TrainEpoch(events []tgraph.Event, ns *dataset.NegSampler) StreamResult {
	res := m.runStream(events, ns, true, nil, nil)
	m.publishOwn()
	return res
}

// EvalStream evaluates link prediction over events without training,
// updating streaming state as it goes (the transductive protocol of the
// paper's Table 2).
func (m *Model) EvalStream(events []tgraph.Event, ns *dataset.NegSampler) StreamResult {
	return m.runStream(events, ns, false, nil, nil)
}

// EvalStreamMasked is EvalStream with an aligned event mask: MaskedAP in the
// result covers only the selected events. Pass Split.NewNodeInTest to get
// the inductive unseen-node AP the paper's datasets are chosen to exercise
// (§4.1: 19%% of Wikipedia's val/test nodes are unseen in training).
func (m *Model) EvalStreamMasked(events []tgraph.Event, mask []bool, ns *dataset.NegSampler) StreamResult {
	return m.runStream(events, ns, false, nil, mask)
}

// CollectStream runs an inference pass invoking collect with the fresh
// embeddings of every event's endpoints (used to train downstream task
// decoders).
func (m *Model) CollectStream(events []tgraph.Event, ns *dataset.NegSampler, collect func(ev *tgraph.Event, zsrc, zdst []float32)) StreamResult {
	return m.runStream(events, ns, false, collect, nil)
}

// Inference is the output of the synchronous link for one served batch: the
// interaction scores plus the fresh embeddings the asynchronous link needs
// to write state and generate mails.
//
// The scores, embeddings and row indices live in a pooled workspace owned
// by this Inference; they stay valid until Release. Call Release once the
// result is fully consumed — after ApplyInference on the serving path — to
// recycle the workspace; never use the Inference (or slices read from it)
// afterwards. Skipping Release is safe but forgoes reuse.
type Inference struct {
	Events []tgraph.Event
	Scores []float32

	nodes   []tgraph.NodeID
	emb     *tensor.Matrix
	srcRow  []int32
	dstRow  []int32
	version uint64
	ws      *inferWorkspace
}

// ParamVersion reports which published parameter version scored this batch.
// The whole pass ran on that one immutable snapshot — pinned at entry, so a
// concurrent SwapParams cannot mix versions within a batch.
func (inf *Inference) ParamVersion() uint64 { return inf.version }

// Release returns the Inference's workspace (embeddings, scores, tape
// storage) to the model for reuse. The caller must be done with
// ApplyInference and with every slice obtained from the Inference.
//
// Release must be called at most once per InferBatch result, by whoever
// owns it last. A duplicate call *before* the model reuses the workspace
// is a harmless no-op (the first call clears the struct) — but once the
// workspace has been re-acquired by another InferBatch, the old pointer
// aliases the new pass's live Inference, so a late duplicate Release is a
// use-after-free-style bug, exactly like touching any other released
// buffer. In short: after Release, drop every reference.
func (inf *Inference) Release() {
	ws := inf.ws
	if ws == nil {
		return
	}
	*inf = Inference{}
	ws.release()
}

// InferBatch runs only the synchronous link on a batch: read mailboxes and
// state, encode, decode. No graph access, no state mutation — this is the
// millisecond path of the deployed system. Hand the result to ApplyInference
// (directly or through async.Pipeline) to run the asynchronous link.
//
// InferBatch is safe to call from any number of goroutines concurrently with
// itself, with ApplyInference and with SwapParams: the gather takes only
// shard read locks (plus the shared latch), the forward pass works on
// copies, and the parameter version is pinned by a single atomic load at
// entry — the entire pass scores with that one immutable snapshot. With
// Config.InferWorkers > 1 the gather itself additionally fans out across
// goroutines.
func (m *Model) InferBatch(events []tgraph.Event) *Inference {
	pv := m.cur.Load()
	ws := m.acquireWorkspace()
	m.planBatchInto(&ws.plan, events, nil, false)
	m.storeMu.RLock()
	ws.gather(m.st, m.mbox, ws.plan.nodes, ws.plan.times, m.Cfg.InferWorkers)
	m.storeMu.RUnlock()
	tp := ws.tape
	z, att := pv.enc.Forward(tp, &ws.in)
	zsrc := tp.Gather(z, ws.plan.srcRow)
	zdst := tp.Gather(z, ws.plan.dstRow)
	logits := pv.dec.Forward(tp, zsrc, zdst)
	m.setExplain(att, ws.plan.nodes, ws.in.Counts, pv.set.Version())
	ws.scores = grow(ws.scores, len(events))
	for i := range ws.scores {
		ws.scores[i] = tensor.Sigmoid32(logits.Value().Data[i])
	}
	ws.inf = Inference{
		Events:  events,
		Scores:  ws.scores,
		nodes:   ws.plan.nodes,
		emb:     z.Value(),
		srcRow:  ws.plan.srcRow,
		dstRow:  ws.plan.dstRow,
		version: pv.set.Version(),
		ws:      ws,
	}
	return &ws.inf
}

// ApplyInference performs the post-inference mutations for a served batch:
// state writes, graph insert and mail propagation, reusing the embeddings
// computed by InferBatch. In the deployed system this runs on the
// asynchronous link.
//
// Safe to call concurrently with InferBatch and with other ApplyInference
// calls: state writes and mail deliveries lock only the touched shard, so a
// write burst never stalls synchronous-link reads of other shards; the
// temporal graph is the one serialized piece (graphMu).
// The batch's mutations happen under the shared apply gate as one unit, so
// a concurrent checkpoint cut lands only on batch boundaries. With a WAL
// attached the batch is logged at the serial apply point (under graphMu,
// immediately before the graph insert — WAL order equals graph order) and
// ApplyInference returns only after the record's commit group is flushed
// per the log's fsync policy; the group-commit wait happens off every model
// lock, so durability I/O never serializes the stores. A WAL I/O error is
// latched in the log (see wal.Log.Err) rather than failing the apply:
// serving degrades to best-effort durability and the operator sees it in
// /v1/stats.
func (m *Model) ApplyInference(inf *Inference) {
	m.applyRows(inf.Events, inf.emb.Data[:len(inf.nodes)*inf.emb.Cols], inf.srcRow, inf.dstRow)
}

// applyRows is the asynchronous link's whole mutation span for one batch,
// given what the synchronous link computed: rows holds one embedding per
// distinct endpoint and srcRow/dstRow say which row is each event's. Serving
// (ApplyInference) hands over the rows it just computed, replay (ReplayBatch)
// the rows the log kept — nothing past this point looks at parameters.
func (m *Model) applyRows(events []tgraph.Event, rows []float32, srcRow, dstRow []int32) {
	dim := m.Cfg.EdgeDim
	m.storeMu.RLock()
	m.applyMu.RLock()
	for i, ev := range events {
		s, d := int(srcRow[i])*dim, int(dstRow[i])*dim
		m.st.Set(ev.Src, rows[s:s+dim], ev.Time)
		m.st.Set(ev.Dst, rows[d:d+dim], ev.Time)
	}
	m.graphMu.Lock()
	commit := m.logBatchLocked(events, rows)
	m.prop.ProcessBatch(events, m.st)
	m.graphMu.Unlock()
	// Eviction is the batch's last mutation, inside the apply gate: a
	// checkpoint cut can never separate a batch's writes from the evictions
	// they trigger.
	m.noteTouched(events)
	m.applyMu.RUnlock()
	m.storeMu.RUnlock()
	commit.Wait() // off every model lock; error is latched in the log
}

// logBatchLocked appends the batch and its endpoints' embeddings (rows, in
// plan order) to the attached WAL, if any. Requires graphMu: the caller is
// about to insert the same events, so the record's indices equal the events'
// graph ids. Returns the zero Commit (whose Wait is a no-op) when no WAL is
// attached.
func (m *Model) logBatchLocked(events []tgraph.Event, rows []float32) wal.Commit {
	if m.wal == nil {
		return wal.Commit{}
	}
	return m.wal.BeginRecord(events, rows, m.Cfg.EdgeDim)
}

// AttachWAL starts logging every applied batch to l, aligning the log's
// next index to the model's current graph watermark first (a fresh-start
// warmup that predates the log becomes a legal index gap, covered by the
// checkpoint the caller writes before attaching). Attaching a log that is
// already past the watermark fails: recover (RecoverWAL) first, so indices
// stay unique.
func (m *Model) AttachWAL(l *wal.Log) error {
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.graphMu.Lock()
	defer m.graphMu.Unlock()
	if m.wal != nil {
		return fmt.Errorf("core: a WAL is already attached")
	}
	if err := l.AlignTo(uint64(m.db.G.NumEvents())); err != nil {
		return err
	}
	m.wal = l
	return nil
}

// DetachWAL stops logging and returns the previously attached log (nil if
// none) so the caller can Sync or Close it. In-flight batches finish
// logging first: detaching takes the apply gate exclusively.
func (m *Model) DetachWAL() *wal.Log {
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.graphMu.Lock()
	defer m.graphMu.Unlock()
	l := m.wal
	m.wal = nil
	return l
}

// WAL returns the attached write-ahead log, or nil.
func (m *Model) WAL() *wal.Log {
	m.graphMu.Lock()
	defer m.graphMu.Unlock()
	return m.wal
}

// setExplain copies the most recent forward pass's attention into the
// model-owned explain record: the source buffers belong to the pass's
// workspace and are recycled on Release, so the copy is what makes Explain
// safe after the pass's memory is reused. The buffers grow to the largest
// batch seen and then stop allocating.
func (m *Model) setExplain(att *nn.Attention, nodes []tgraph.NodeID, counts []int, version uint64) {
	if m.Cfg.NoExplain {
		return
	}
	m.explainMu.Lock()
	r := &m.explain
	r.valid = att != nil
	r.version = version
	if att != nil {
		r.heads, r.slots = att.Heads(), att.Slots()
		r.weights = append(r.weights[:0], att.Weights...)
		r.nodes = append(r.nodes[:0], nodes...)
		r.counts = append(r.counts[:0], counts...)
	}
	m.explainMu.Unlock()
}

// Embed returns the current temporal embeddings z(t) of the given nodes at
// their query times, with no side effects, computed with the published
// parameter version pinned at entry. This is the public embedding API for
// downstream consumers; like InferBatch it is safe for concurrent use,
// including during SwapParams churn. The returned matrix is a copy owned by
// the caller.
func (m *Model) Embed(nodes []tgraph.NodeID, times []float64) *tensor.Matrix {
	pv := m.cur.Load()
	ws := m.acquireWorkspace()
	m.storeMu.RLock()
	ws.gather(m.st, m.mbox, nodes, times, m.Cfg.InferWorkers)
	m.storeMu.RUnlock()
	z, _ := pv.enc.Forward(ws.tape, &ws.in)
	out := z.Value().Clone()
	ws.release()
	return out
}
