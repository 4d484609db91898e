package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"apan/internal/dataset"
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
// Score, Embed and ApplyPending concurrently — readers and writers
// contend only when they touch the same shard. The temporal graph, which
// only the asynchronous link touches, is one store behind one mutex, so
// applies serialize there. Parameters are versioned: the serving paths read
// an atomically published immutable snapshot (see SwapParams), so a
// background trainer can hot-swap weights while serving continues. The
// offline stream entry points (TrainEpoch and the Eval/Collect streams)
// use the model's own parameter copy, which TrainEpoch steps in place; they
// are not safe to run concurrently with each other or with SwapParams on
// the same tensors.
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
	// with: Score/Embed load it exactly once per pass, so every result
	// is attributable to one version. verCounter allocates publish versions.
	cur        atomic.Pointer[paramVersion]
	verCounter atomic.Uint64

	// storeMu is a latch, not a data lock: every per-batch operation
	// (Score, ApplyPending, Embed, the offline streams) holds it
	// SHARED — readers and writers alike — because per-node safety already
	// comes from the stores' shard locks. Exclusive acquisition is reserved
	// for operations that may swap the stores' backing arrays or replace the
	// graph wholesale: node admission (EnsureNodes), Reset/Restore and
	// checkpoint load. Checkpoint CUTS no longer take it exclusively — they
	// hold it shared and quiesce only the appliers via applyMu, so scoring
	// proceeds during a snapshot.
	//
	// Lock order: storeMu → applyMu → (shard locks | graphMu). Every
	// acquisition sequence is strictly nested in that order; none re-enters
	// an earlier lock, which is what makes the latch trio deadlock-free.
	storeMu sync.RWMutex

	// applyMu is the apply gate: the asynchronous link's mutation span
	// (applyRows, behind every apply, replay and offline-stream entry point)
	// holds it SHARED for the whole batch mutation — state writes, WAL
	// append, graph insert and mail propagation as one atomic unit. A durability cut (checkpoint,
	// SnapshotRuntime, RuntimeDigest) holds it EXCLUSIVELY, so the cut
	// always lands on a batch boundary: no checkpoint can capture state
	// from batch k+1 next to a graph at batch k, and the WAL watermark it
	// pins is replayable with original batch boundaries. Scorers
	// (Score, Embed, GatherInputsInto) never touch applyMu — a snapshot
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

	// wsMu/wsFree recycle inference workspaces (gather buffers + reusable
	// tape) across Score/Embed/Explain calls and goroutines.
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
	replayPlan Plan

	// ev is the cold-state evictor bounding the warm working set
	// (Config.EvictMaxNodes; see evict.go). Nil when eviction is disabled —
	// the default — in which case every eviction hook is a no-op and the
	// model's behavior is bitwise unchanged.
	ev *evictor
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
// the one TrainEpoch steps in place. The serving paths do not read these
// tensors; they read the published snapshot (see SwapParams/CurrentParams).
// Online trainers keep their own private copy and never touch this one.
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

// GatherInputsInto reads z(t−) and the timestamp-sorted mailboxes of nodes
// at the given query times under the shared store latch into the caller's
// bundle and timestamp scratch, fanning out over Config.InferWorkers lanes —
// the read-only view Step trains and evaluates from, which blocks serving
// no more than any other reader (it contends only per shard). All buffers
// are grown in place as needed, so a steady-state caller gathers without
// allocating; mail rows past each node's valid count are explicitly zeroed,
// so the bundle is indistinguishable from ReadInputs' fresh one.
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
	*ts = grow(*ts, m.Cfg.InferWorkers*sl)
	gatherInto(m.st, m.mbox, nodes, times, m.Cfg.InferWorkers, in, *ts)
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
// so concurrent Score calls proceed; only the appliers pause, for the
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

// runStream runs events through RunStream with the model's own modules:
// train steps the model's own parameters, collect sees every event's fresh
// endpoint embeddings, and each batch is then applied like a served one.
func (m *Model) runStream(events []tgraph.Event, ns *dataset.NegSampler, train bool, collect func(ev *tgraph.Event, zsrc, zdst []float32), mask []bool) StreamResult {
	s := m.NewStep(m.rng)
	return RunStream(events, m.Cfg.BatchSize, ns, m.rng, m.Cfg.NumNodes, mask, func(batch []tgraph.Event, negs []tgraph.NodeID) BatchResult {
		var res BatchResult
		if train {
			res = s.Train(m.enc, m.dec, m.Params(), 5, batch, negs)
			m.opt.Step()
			m.opt.ZeroGrad()
		} else {
			res = s.Eval(m.enc, m.dec, batch, negs)
		}
		p := &s.Plan
		if collect != nil {
			for i := range batch {
				collect(&batch[i], res.Z.Row(int(p.SrcRow[i])), res.Z.Row(int(p.DstRow[i])))
			}
		}
		m.applyRows(batch, res.Z.Data[:p.Endpoints*res.Z.Cols], p.SrcRow, p.DstRow)
		return res
	})
}

// TrainEpoch trains over one chronological pass of events, stepping the
// model's own parameter copy with the Step the online trainer runs, and
// republishes the result so subsequent serving passes score with the
// trained weights. The caller is responsible for ResetRuntime at epoch
// starts.
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
// decoders). The slices are valid only during the call; copy what you keep.
func (m *Model) CollectStream(events []tgraph.Event, ns *dataset.NegSampler, collect func(ev *tgraph.Event, zsrc, zdst []float32)) StreamResult {
	return m.runStream(events, ns, false, collect, nil)
}

// Pending is a scored batch waiting for the asynchronous link: its events,
// their scores, and a copy of exactly what applyRows reads — one
// EdgeDim-wide embedding per distinct endpoint, and which row is each
// event's source and destination. It owns no workspace, so a queued batch
// costs ≈ endpoints × EdgeDim floats (≈ 83 KB at batch 200) instead of a
// pass's ≈ 17 MB. The zero value is ready for Score; the buffers grow to
// the largest batch scored into it and are reused after that.
type Pending struct {
	Events []tgraph.Event
	Scores []float32

	rows           []float32
	srcRow, dstRow []int32
	version        uint64
}

// ParamVersion reports which published parameter version scored this batch.
// The whole pass ran on that one immutable snapshot — pinned at entry, so a
// concurrent SwapParams cannot mix versions within a batch.
func (p *Pending) ParamVersion() uint64 { return p.version }

// Score runs only the synchronous link on a batch: read mailboxes and
// state, encode, decode. No graph access, no state mutation — this is the
// millisecond path of the deployed system. It writes the batch into p,
// reusing p's buffers: p.Events aliases events, p.Scores holds the
// interaction scores (also returned; valid until p is scored into again),
// and p keeps a copy of the endpoint embeddings ApplyPending needs. The
// pass's workspace is back with the model before Score returns, so p alone
// carries the batch.
//
// Score is safe to call from any number of goroutines concurrently with
// itself, with ApplyPending and with SwapParams, each with its own Pending:
// the gather takes only shard read locks (plus the shared latch), the
// forward pass works on copies, and the parameter version is pinned by a
// single atomic load at entry — the entire pass scores with that one
// immutable snapshot. With Config.InferWorkers > 1 the gather itself
// additionally fans out across goroutines.
//
// events must be non-empty: the encoder has no zero-row pass, and an empty
// batch panics. async.Pipeline answers empty batches without calling it.
func (m *Model) Score(events []tgraph.Event, p *Pending) []float32 {
	pv := m.cur.Load()
	ws := m.acquireWorkspace()
	defer ws.release()
	ws.plan.Build(events, nil)
	m.storeMu.RLock()
	ws.gather(m.st, m.mbox, ws.plan.Nodes, ws.plan.Times, m.Cfg.InferWorkers)
	m.storeMu.RUnlock()
	tp := ws.tape
	z, _ := pv.enc.Forward(tp, &ws.in)
	zsrc := tp.Gather(z, ws.plan.SrcRow)
	zdst := tp.Gather(z, ws.plan.DstRow)
	logits := pv.dec.Forward(tp, zsrc, zdst).Value().Data
	p.Events = events
	p.Scores = grow(p.Scores, len(events))
	for i := range p.Scores {
		p.Scores[i] = tensor.Sigmoid32(logits[i])
	}
	emb := z.Value()
	p.rows = append(p.rows[:0], emb.Data[:len(ws.plan.Nodes)*emb.Cols]...)
	p.srcRow = append(p.srcRow[:0], ws.plan.SrcRow...)
	p.dstRow = append(p.dstRow[:0], ws.plan.DstRow...)
	p.version = pv.set.Version()
	return p.Scores
}

// ApplyPending performs the post-inference mutations for a scored batch:
// state writes, graph insert and mail propagation, reusing the embeddings
// Score computed. In the deployed system this runs on the asynchronous
// link.
//
// Safe to call concurrently with Score and with other ApplyPending calls:
// state writes and mail deliveries lock only the touched shard, so a write
// burst never stalls synchronous-link reads of other shards; the temporal
// graph is the one serialized piece (graphMu).
// The batch's mutations happen under the shared apply gate as one unit, so
// a concurrent checkpoint cut lands only on batch boundaries. With a WAL
// attached the batch is logged at the serial apply point (under graphMu,
// immediately before the graph insert — WAL order equals graph order) and
// ApplyPending returns only after the record's commit group is flushed per
// the log's fsync policy; the group-commit wait happens off every model
// lock, so durability I/O never serializes the stores. A WAL I/O error is
// latched in the log (see wal.Log.Err) rather than failing the apply:
// serving degrades to best-effort durability and the operator sees it in
// /v1/stats.
func (m *Model) ApplyPending(p *Pending) { m.applyRows(p.Events, p.rows, p.srcRow, p.dstRow) }

// Inference is the scored-batch type of the old two-call serving API.
//
// Deprecated: use Pending with Score and ApplyPending. Inference,
// InferBatch, Release and ApplyInference remain only for the frozen
// benchmark module and go with its next edit.
type Inference struct{ Pending }

// InferBatch scores events into a new Inference.
//
// Deprecated: use Score.
func (m *Model) InferBatch(events []tgraph.Event) *Inference {
	inf := new(Inference)
	m.Score(events, &inf.Pending)
	return inf
}

// Release does nothing: Score has already returned the workspace.
//
// Deprecated: drop the call.
func (inf *Inference) Release() {}

// ApplyInference applies inf's batch.
//
// Deprecated: use ApplyPending.
func (m *Model) ApplyInference(inf *Inference) { m.ApplyPending(&inf.Pending) }

// applyRows is the asynchronous link's whole mutation span for one batch,
// given what the synchronous link computed: rows holds one embedding per
// distinct endpoint and srcRow/dstRow say which row is each event's. Serving
// (ApplyPending) hands over the rows it just computed, replay (ReplayBatch)
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

// Embed returns the current temporal embeddings z(t) of the given nodes at
// their query times, with no side effects, computed with the published
// parameter version pinned at entry. This is the public embedding API for
// downstream consumers; like Score it is safe for concurrent use,
// including during SwapParams churn. The returned matrix is a copy owned by
// the caller. Every node must lie in the node space; Embed panics otherwise.
func (m *Model) Embed(nodes []tgraph.NodeID, times []float64) *tensor.Matrix {
	pv := m.cur.Load()
	ws := m.acquireWorkspace()
	defer ws.release()
	if !m.gatherChecked(ws, nodes, times) {
		panic(fmt.Sprintf("core: Embed: a node lies outside [0,%d)", m.NumNodes()))
	}
	z, _ := pv.enc.Forward(ws.tape, &ws.in)
	return z.Value().Clone()
}

// gatherChecked fills ws with z(t−) and the sorted mailboxes of nodes at
// times under the shared store latch: the read Embed and Explain encode
// from. It reads nothing and reports false when a node lies outside the
// node space, which is checked under the latch because RestoreRuntime may
// shrink it.
func (m *Model) gatherChecked(ws *inferWorkspace, nodes []tgraph.NodeID, times []float64) bool {
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	for _, n := range nodes {
		if n < 0 || int(n) >= m.Cfg.NumNodes {
			return false
		}
	}
	ws.gather(m.st, m.mbox, nodes, times, m.Cfg.InferWorkers)
	return true
}
