package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"apan/internal/dataset"
	"apan/internal/gdb"
	"apan/internal/nn"
	"apan/internal/state"
	"apan/internal/tensor"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

// Model is the full APAN system: attention encoder and link decoder on the
// synchronous path, mail propagator on the asynchronous path, with the
// node store (each node's embedding and mailbox) in between.
//
// Concurrency: two locks guard the runtime. applyMu is the writer lock:
// every mutation — an applied or replayed batch, eviction, node admission,
// reset, restore, checkpoint load — holds it for its whole span, so there
// is one writer at a time and each batch is one unit. storeMu is the data
// lock over the node store: scorers hold it shared for their gather only,
// and the writer takes it exclusively only while it writes store memory.
// Any number of goroutines may run Score, Embed and
// Explain concurrently with each other and with ApplyPending; a scorer
// waits at most for one burst of store writes, never for the graph or the
// WAL. Parameters are versioned: the serving paths read
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
	st   *state.Store
	db   *gdb.DB
	prop *Propagator
	opt  *nn.Adam

	// cur is the published parameter generation the serving hot paths score
	// with: Score/Embed load it exactly once per pass, so every result
	// is attributable to one version. verCounter allocates publish versions.
	cur        atomic.Pointer[paramVersion]
	verCounter atomic.Uint64

	// applyMu is the writer lock. Every mutation holds it for its whole
	// span: applyRows (behind every apply, replay and offline-stream entry
	// point), eviction and re-admission, EnsureNodes, ResetRuntime,
	// RestoreRuntime, checkpoint load and WAL attach/detach. So do graph
	// readers (GraphEvents, WAL, re-admission's neighbour query) — the
	// temporal graph does no locking of its own — and cuts (SnapshotRuntime,
	// RuntimeDigest), which read the store with no further lock because
	// every store write happens under applyMu; a cut therefore always lands
	// on a batch boundary. WAL Begin and the graph insert both happen under
	// it, so log order equals graph order.
	//
	// Lock order: applyMu → evictor.mu → storeMu. No acquisition re-enters
	// an earlier lock, and a WAL commit's Wait runs off every lock.
	applyMu sync.Mutex

	// storeMu is the data lock over st and Cfg.NumNodes. Scorers (Score,
	// Embed, Explain, GatherInputsInto) hold it shared for their gather
	// only. A writer, already holding applyMu, takes it exclusively only
	// while it writes store memory — the Set loop, the mail delivery,
	// ClearNode, Grow, Reset, install — never across a graph round trip or
	// a WAL wait.
	storeMu sync.RWMutex

	// numNodes mirrors Cfg.NumNodes, stored under storeMu wherever that
	// changes, so NumNodes, which checks every submitted batch, never waits.
	numNodes atomic.Int64

	// wal, when attached, records every batch entering the graph, Begin'd
	// under applyMu immediately before the insert. Guarded by applyMu.
	wal *wal.Log

	// passMu/passFree recycle passes (plan, gather buffers, reusable tape)
	// across Score/Embed/Explain calls and goroutines. A plain stack, not a
	// sync.Pool: the pool's per-P slots and GC clearing made concurrent
	// scorers keep missing and re-paying a pass's warm-up (the
	// infer_parallel_p4/p8 allocation regression). The stack never loses a
	// warm pass and holds at most the peak scorer concurrency.
	passMu   sync.Mutex
	passFree []*pass

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
		Cfg: cfg,
		rng: rng,
		enc: NewEncoder(cfg, rng),
		dec: dec,
		db:  db,
	}
	m.st = m.newStore(cfg.NumNodes)
	if cfg.EvictMaxNodes > 0 {
		m.ev = newEvictor(cfg.EvictMaxNodes)
	}
	m.numNodes.Store(int64(cfg.NumNodes))
	m.prop = NewPropagator(cfg, db, m.st)
	m.opt = nn.NewAdam(m.Params(), cfg.LR)
	m.publishOwn()
	return m, nil
}

// newStore returns an empty node store over n nodes, shaped by the model's
// Config and under its mailbox update rule ψ.
func (m *Model) newStore(n int) *state.Store {
	st := state.New(n, m.Cfg.Slots, m.Cfg.EdgeDim)
	if m.Cfg.KeyValueMailbox {
		st.SetRule(state.UpdateKeyValue)
	}
	return st
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
// the serving watermark — read under the writer lock, so it is safe with
// respect to concurrent propagation.
func (m *Model) GraphEvents() int {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	return m.db.G.NumEvents()
}

// State exposes the node store: every node's embedding and mailbox. It
// does no locking: use it only while nothing applies to the model, as
// tests, tools and benchmarks do.
func (m *Model) State() *state.Store { return m.st }

// Mailbox returns State().
//
// Deprecated: mailboxes live in the node store; use State. Kept only
// because the frozen benchmark calls it.
func (m *Model) Mailbox() *state.Store { return m.st }

// MailboxOccupancy reports the record memory of the node store, read under
// the store lock, so it is safe to call during serving.
func (m *Model) MailboxOccupancy() state.Occupancy {
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	return m.st.Occupancy()
}

// Propagator exposes the asynchronous-link implementation.
func (m *Model) Propagator() *Propagator { return m.prop }

// NumNodes returns the current node-ID space, which EnsureNodes may have
// grown past Cfg.NumNodes.
func (m *Model) NumNodes() int { return int(m.numNodes.Load()) }

// EnsureNodes grows the node-ID space to at least n nodes, so events naming
// previously unseen IDs can be scored and propagated: the node store and
// the temporal graph are both extended (new nodes start with zero state
// and empty mailboxes — exactly how an unseen node looks to the
// encoder, which therefore produces its inductive cold-start embedding).
// Safe to call concurrently with serving: it waits for the batch being
// applied, and scorers for the index growth alone. No-op when n ≤ NumNodes.
func (m *Model) EnsureNodes(n int) {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.ensureNodesLocked(n)
}

// ensureNodesLocked is EnsureNodes for a caller holding applyMu.
func (m *Model) ensureNodesLocked(n int) {
	if n <= m.Cfg.NumNodes {
		return
	}
	m.storeMu.Lock()
	m.st.Grow(n)
	m.Cfg.NumNodes = n
	m.numNodes.Store(int64(n))
	m.storeMu.Unlock()
	m.db.G.Grow(n)
}

// ResetRuntime clears all streaming state — node embeddings, mailboxes and
// the temporal graph — as done at the start of every training epoch. Model
// parameters and the (possibly grown) node-ID space are kept.
func (m *Model) ResetRuntime() {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.storeMu.Lock()
	m.st.Reset()
	m.storeMu.Unlock()
	// Reset in place: the model keeps the same *Graph across runtime
	// resets, so whoever holds the graph DB keeps seeing the live graph.
	m.db.G.Reset(m.Cfg.NumNodes, nil)
	m.db.ResetStats()
	m.resetEvictor()
}

// Snapshot is the model's runtime image: the node store (embeddings and
// mailboxes) and the temporal graph's events, cut on one batch boundary.
// Its node space is the store's. An image is immutable once built: nothing
// writes its store, and its events are a prefix of an append-only log.
// Parameters are not included; they are versioned on their own (see
// SwapParams).
type Snapshot struct {
	st     *state.Store
	events []tgraph.Event
}

// SnapshotRuntime captures the model's runtime image: a deep copy of the
// node store plus a zero-copy prefix of the graph's event log (see
// tgraph.EventLog). It holds the writer lock, so the image lands on a batch
// boundary and only the applier pauses, for a memcpy-speed clone; scorers
// only read the store, so scoring continues throughout.
func (m *Model) SnapshotRuntime() *Snapshot {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	return &Snapshot{st: m.st.Clone(), events: slices.Clip(m.db.G.EventLog())}
}

// RestoreRuntime rolls the streaming state back to snap — store, node-ID
// space (nodes admitted since are forgotten) and graph, rebuilt from the
// snapshot's own events. A snapshot restores into any model of its Config,
// after a ResetRuntime too, and may be restored any number of times.
func (m *Model) RestoreRuntime(snap *Snapshot) {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	m.install(&Snapshot{st: snap.st.Clone(), events: snap.events})
}

// install makes img the model's runtime: its store becomes the model's, so
// img is not used again. Requires applyMu. One exclusive hold of storeMu
// replaces the store in place, so a scorer sees it before or after, never
// half installed; the graph is rebuilt in place, so a graph DB holding it
// keeps seeing the live graph. Evictor tracking describes the store being
// replaced and is dropped: installed warm nodes rejoin the LRU as the
// stream touches them.
func (m *Model) install(img *Snapshot) {
	m.resetEvictor()
	space := img.st.NumNodes()
	m.storeMu.Lock()
	*m.st = *img.st
	m.Cfg.NumNodes = space
	m.numNodes.Store(int64(space))
	m.storeMu.Unlock()
	// Reset replaces (never overwrites) the log's backing array, so events
	// captured from this very graph keep their contents while it is rebuilt.
	m.db.G.Reset(space, img.events)
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
// event's source and destination. It holds no pass, so a queued batch
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
// pass is back with the model before Score returns, so p alone carries the
// batch.
//
// Score is safe to call from any number of goroutines concurrently with
// itself, with ApplyPending and with SwapParams, each with its own Pending:
// the gather holds the store lock shared, the forward pass works on
// copies, and the parameter version is pinned by a single atomic load at
// entry — the entire pass scores with that one immutable snapshot.
//
// events must be non-empty: the encoder has no zero-row pass, and an empty
// batch panics. So does an event naming a node outside the node space.
// async.Pipeline refuses both without calling it.
func (m *Model) Score(events []tgraph.Event, p *Pending) []float32 {
	pv := m.cur.Load()
	ps := m.acquirePass()
	defer m.releasePass(ps)
	plan := &ps.Plan
	plan.Build(events, nil)
	m.GatherInputsInto(&ps.in, &ps.ts, plan.Nodes, plan.Times)
	tp := ps.tape
	z, _ := pv.enc.Forward(tp, &ps.in)
	zsrc := tp.Gather(z, plan.SrcRow)
	zdst := tp.Gather(z, plan.DstRow)
	logits := pv.dec.Forward(tp, zsrc, zdst).Value().Data
	p.Events = events
	p.Scores = grow(p.Scores, len(events))
	for i := range p.Scores {
		p.Scores[i] = tensor.Sigmoid32(logits[i])
	}
	emb := z.Value()
	p.rows = append(p.rows[:0], emb.Data[:len(plan.Nodes)*emb.Cols]...)
	p.srcRow = append(p.srcRow[:0], plan.SrcRow...)
	p.dstRow = append(p.dstRow[:0], plan.DstRow...)
	p.version = pv.set.Version()
	return p.Scores
}

// ApplyPending performs the post-inference mutations for a scored batch:
// state writes, graph insert and mail propagation, reusing the embeddings
// Score computed. In the deployed system this runs on the asynchronous
// link.
//
// Safe to call concurrently with Score and with other ApplyPending calls:
// the batch's mutations happen under the writer lock as one unit, so
// applies serialize and a concurrent checkpoint cut lands only on batch
// boundaries, and scorers wait only while the state rows and the reduced
// mails are written (see applyRows). With a WAL attached the batch is
// logged at the serial apply point (immediately before the graph insert —
// WAL order equals graph order) and ApplyPending returns only after the
// record's commit group is flushed per the log's fsync policy; the
// group-commit wait happens off every model lock. A WAL I/O error is
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

// Release does nothing: Score has already returned its pass.
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
	m.applyMu.Lock()
	m.storeMu.Lock()
	for i, ev := range events {
		s, d := int(srcRow[i])*dim, int(dstRow[i])*dim
		m.st.Set(ev.Src, rows[s:s+dim], ev.Time)
		m.st.Set(ev.Dst, rows[d:d+dim], ev.Time)
	}
	m.storeMu.Unlock()
	commit := m.logBatchLocked(events, rows)
	// The graph insert and k-hop expansion read the node store without
	// storeMu: only this writer could change it, and it holds applyMu.
	m.prop.accumulate(events, m.st)
	m.storeMu.Lock()
	m.prop.deliverInbox()
	m.storeMu.Unlock()
	// Eviction is the batch's last mutation, under the same writer lock: a
	// checkpoint cut can never separate a batch's writes from the evictions
	// they trigger.
	m.noteTouched(events)
	m.applyMu.Unlock()
	commit.Wait() // off every model lock; error is latched in the log
}

// logBatchLocked appends the batch and its endpoints' embeddings (rows, in
// plan order) to the attached WAL, if any. Requires applyMu: the caller is
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
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
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
// logging first: detaching takes the writer lock.
func (m *Model) DetachWAL() *wal.Log {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	l := m.wal
	m.wal = nil
	return l
}

// WAL returns the attached write-ahead log, or nil.
func (m *Model) WAL() *wal.Log {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
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
	ps := m.acquirePass()
	defer m.releasePass(ps)
	m.GatherInputsInto(&ps.in, &ps.ts, nodes, times)
	z, _ := pv.enc.Forward(ps.tape, &ps.in)
	return z.Value().Clone()
}
