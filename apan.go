// Package apan is a from-scratch Go implementation of APAN — the
// Asynchronous Propagation Attention Network for real-time temporal graph
// embedding (Wang et al., SIGMOD 2021) — together with the full substrate
// it needs: a temporal graph store, a per-node store of embeddings and
// mailboxes, a neural-network engine, the asynchronous serving pipeline,
// synthetic counterparts of the paper's datasets, every baseline of the
// paper's evaluation, and a benchmark harness that regenerates each table
// and figure.
//
// The model splits into two links (paper Fig. 2b):
//
//   - Synchronous: when a batch of interactions arrives, the attention
//     encoder reads each node's last embedding z(t−) and mailbox, produces
//     z(t), and an MLP decoder scores the interaction — with no graph
//     queries on the critical path.
//   - Asynchronous: afterwards, a mail summarizing the interaction is
//     propagated to the k-hop temporal neighbors' mailboxes through the
//     graph store (behind a bounded queue in serving).
//
// Quick start:
//
//	ds := apan.Wikipedia(apan.DatasetConfig{Scale: 0.05, Seed: 1})
//	model, err := apan.New(apan.Config{NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim})
//	if err != nil { ... }
//	split := ds.Split(0.70, 0.15)
//	ns := apan.NewNegSampler(ds.NumNodes)
//	for epoch := 0; epoch < 10; epoch++ {
//		model.ResetRuntime()
//		model.TrainEpoch(split.Train, ns)
//	}
//	res := model.EvalStream(split.Test, ns)
//	fmt.Printf("test AP %.3f\n", res.AP)
//
// For online serving, wrap the model in a Pipeline (see StartPipeline):
// Submit answers on the synchronous link with context cancellation and
// queues the propagation work; TrySubmit sheds load instead of blocking,
// and Shutdown drains then stops. One applier writes the node store under
// the model's writer lock and takes its store lock
// only while it writes store memory, so concurrent submissions score in
// parallel, and EnsureNodes admits unseen node IDs at runtime. Put a Server in front of
// the pipeline (see NewServer) to expose the versioned HTTP/JSON API —
// POST /v1/score, GET /v1/stats, GET /v1/healthz, GET /v1/explain/{node}
// — whose micro-batcher coalesces concurrent single-event requests into
// one synchronous-link pass:
//
//	pipe := apan.StartPipeline(model, apan.WithQueueCap(256))
//	defer pipe.Shutdown(context.Background())
//	srv := apan.NewServer(pipe, apan.ServerOptions{})
//	defer srv.Close()
//	http.ListenAndServe(":7683", srv)
//
// The request/response schemas are documented in docs/serving.md; the
// README has the quickstart and benchmark table, and docs/architecture.md
// maps paper sections to packages.
package apan

import (
	"apan/internal/async"
	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/gdb"
	"apan/internal/nn"
	"apan/internal/replica"
	"apan/internal/serve"
	"apan/internal/state"
	"apan/internal/tgraph"
	"apan/internal/train"
	"apan/internal/wal"
)

// Core model API.
type (
	// Config holds APAN hyper-parameters; zero values take the paper's
	// defaults (batch 200, lr 1e-4, 2 heads, 10 slots, 10 neighbors, k=2).
	Config = core.Config
	// Model is the full APAN system.
	Model = core.Model
	// Pending is a scored batch: its scores and what the asynchronous link
	// applies (see Model.Score and Model.ApplyPending).
	Pending = core.Pending
	// StreamResult aggregates a pass over an event stream.
	StreamResult = core.StreamResult
	// Explanation reports per-mail attention weights (paper §3.6).
	Explanation = core.Explanation
	// PositionalMode selects the mailbox positional encoding.
	PositionalMode = core.PositionalMode
	// Propagator is the asynchronous link (mail generation + delivery).
	Propagator = core.Propagator
)

// NewPropagator builds a standalone asynchronous-link propagator writing
// into mbox; Model wires one up internally — this constructor exists for
// benchmarks and custom pipelines.
var NewPropagator = core.NewPropagator

// Positional-encoding modes.
const (
	PositionalLearned = core.PositionalLearned
	PositionalTime    = core.PositionalTime
	PositionalNone    = core.PositionalNone
)

// New builds an APAN model with an in-process temporal graph store.
func New(cfg Config) (*Model, error) { return core.New(cfg) }

// NewWithDB builds an APAN model over a custom graph-database wrapper, e.g.
// one with a simulated latency model.
func NewWithDB(cfg Config, db *GraphDB) (*Model, error) { return core.NewWithDB(cfg, db) }

// Graph substrate.
type (
	// Event is one temporal interaction (v_i, v_j, e_ij, t).
	Event = tgraph.Event
	// NodeID identifies a node.
	NodeID = tgraph.NodeID
	// Graph is the temporal graph store (callers serialize writers
	// against readers; Model does so internally).
	Graph = tgraph.Graph
	// GraphDB wraps a Graph with latency simulation and query
	// accounting.
	GraphDB = gdb.DB
	// LatencyModel maps a neighbor query to a simulated round-trip cost.
	LatencyModel = gdb.LatencyModel
	// NodeState is the node store backing a Model: each node's embedding
	// and mailbox in one record. It does no locking; the Model serializes
	// access to its own.
	NodeState = state.Store
)

// NewGraph creates an empty temporal graph over numNodes nodes.
func NewGraph(numNodes int) *Graph { return tgraph.New(numNodes) }

// NewGraphDB wraps g with accounting and no latency.
func NewGraphDB(g *Graph) *GraphDB { return gdb.New(g) }

// ConstantLatency returns a fixed per-query latency model.
var ConstantLatency = gdb.Constant

// PerItemLatency returns a base+per-item latency model.
var PerItemLatency = gdb.PerItem

// Datasets.
type (
	// Dataset is a chronologically sorted temporal interaction set.
	Dataset = dataset.Dataset
	// DatasetConfig scales and seeds the synthetic generators.
	DatasetConfig = dataset.Config
	// Split is a chronological train/val/test partition.
	Split = dataset.Split
	// NegSampler draws time-aware negative destinations.
	NegSampler = dataset.NegSampler
)

// Wikipedia generates the synthetic stand-in for the JODIE Wikipedia
// editing graph (see DESIGN.md §1 for the substitution rationale).
func Wikipedia(cfg DatasetConfig) *Dataset { return dataset.Wikipedia(cfg) }

// Reddit generates the synthetic stand-in for the JODIE Reddit graph.
func Reddit(cfg DatasetConfig) *Dataset { return dataset.Reddit(cfg) }

// Alipay generates the synthetic stand-in for the paper's industrial
// transaction dataset, including bursty fraud rings.
func Alipay(cfg DatasetConfig) *Dataset { return dataset.Alipay(cfg) }

// LoadCSV reads a real dataset in the JODIE CSV format
// (user,item,timestamp,state_label,features...).
var LoadCSV = dataset.LoadCSV

// SaveCSV writes a bipartite dataset in the JODIE CSV format, so synthetic
// streams can be consumed by other implementations.
var SaveCSV = dataset.SaveCSV

// NewNegSampler creates a negative sampler over numNodes nodes.
func NewNegSampler(numNodes int) *NegSampler { return dataset.NewNegSampler(numNodes) }

// Serving.
type (
	// Pipeline is the deployment architecture: synchronous scoring with
	// asynchronous propagation by one applier behind a bounded queue.
	Pipeline = async.Pipeline
	// PipelineStats is a point-in-time view of pipeline health.
	PipelineStats = async.Stats
	// PipelineOption configures StartPipeline (queue capacity, tenants,
	// an online trainer, a before-apply hook).
	PipelineOption = async.Option
	// Server is the versioned HTTP/JSON serving surface (v1 endpoints)
	// over a Pipeline; it implements http.Handler.
	Server = serve.Server
	// ServerOptions configures a Server: node admission, the online
	// trainer, replication and readiness.
	ServerOptions = serve.Options
	// TenantConfig is a per-tenant admission contract: scheduling weight,
	// event-time rate limit, priority lane, and private queue depth.
	TenantConfig = async.TenantConfig
	// TenantStats is a tenant's admission ledger (submitted = applied +
	// dropped, with rate-limited drops broken out).
	TenantStats = async.TenantStats
)

// DefaultTenant is the tenant id unattributed traffic is queued under, and
// every submission's tenant when multi-tenant admission is off.
const DefaultTenant = async.DefaultTenant

// Pipeline options.
var (
	// WithQueueCap bounds the propagation queue (backpressure point).
	WithQueueCap = async.WithQueueCap
	// WithOnlineTrainer taps the applier's apply path to feed an
	// online trainer with every applied batch.
	WithOnlineTrainer = async.WithOnlineTrainer
	// WithTenants enables multi-tenant admission and registers per-tenant
	// contracts; unregistered tenants inherit the WithTenantDefaults
	// template.
	WithTenants = async.WithTenants
	// WithTenantDefaults enables multi-tenant admission and sets the
	// contract template unregistered tenants are admitted under.
	WithTenantDefaults = async.WithTenantDefaults
)

// Online continual learning (see docs/training.md).
type (
	// ParamSet is an immutable, versioned parameter snapshot — the unit of
	// hot-swappable weights (Model.SwapParams / Model.CurrentParams).
	ParamSet = nn.ParamSet
	// OnlineTrainer adapts a serving model to its own stream: it consumes
	// applied events off the propagation path, steps a private parameter
	// copy, and publishes new versions with holdout-gated hot swaps.
	OnlineTrainer = train.OnlineTrainer
	// TrainerConfig tunes an OnlineTrainer (buffer sizes, step cadence,
	// learning rate, holdout gate, rollback policy).
	TrainerConfig = train.Config
	// TrainerStats is a point-in-time view of trainer health.
	TrainerStats = train.Stats
)

// NewOnlineTrainer builds an online trainer over a model; wire it into the
// pipeline with WithOnlineTrainer and drive it with Start/Stop (or Pump for
// deterministic tests).
func NewOnlineTrainer(m *Model, cfg TrainerConfig) (*OnlineTrainer, error) {
	return train.New(m, cfg)
}

// Serving errors.
var (
	// ErrPipelineClosed is returned by Submit variants after Shutdown.
	ErrPipelineClosed = async.ErrClosed
	// ErrQueueFull is returned by TrySubmit instead of blocking.
	ErrQueueFull = async.ErrQueueFull
	// ErrRateLimited is returned by the Submit variants when a tenant's
	// event-time token bucket is spent (multi-tenant admission only).
	ErrRateLimited = async.ErrRateLimited
)

// Durability (write-ahead event log + checkpoints; docs/durability.md).
type (
	// WAL is the append-only, CRC-framed, segment-rotated write-ahead event
	// log. Attach one to a Model (Model.AttachWAL) and every applied batch
	// is logged, with the embeddings computed for it, at the serial apply
	// point with group commit; recover a crashed replica with
	// Model.LoadCheckpointFile + Model.RecoverWAL.
	WAL = wal.Log
	// WALOptions configures OpenWAL (directory, fsync policy, segment size).
	WALOptions = wal.Options
	// WALPolicy selects when the log fsyncs (group, interval, none).
	WALPolicy = wal.Policy
	// WALStats is a point-in-time view of log health and volume.
	WALStats = wal.Stats
)

// Fsync policies.
const (
	// SyncGroup fsyncs every commit group before acknowledging it.
	SyncGroup = wal.SyncGroup
	// SyncInterval fsyncs on a background ticker (bounded-loss, default).
	SyncInterval = wal.SyncInterval
	// SyncNone never fsyncs; the OS page cache is the only durability.
	SyncNone = wal.SyncNone
)

// OpenWAL opens (or creates) the log in opts.Dir, truncating any torn tail
// left by a crash.
func OpenWAL(opts WALOptions) (*WAL, error) { return wal.Open(opts) }

// ParseSyncPolicy parses a -fsync flag value ("group", "interval", "none").
var ParseSyncPolicy = wal.ParsePolicy

// Warm-standby replication (log-shipped followers; docs/durability.md).
type (
	// WALFaultInjector intercepts segment writes and fsyncs before they
	// reach the disk (WALOptions.Inject) — the storage fault-injection seam
	// the scenario harness drives.
	WALFaultInjector = wal.FaultInjector
	// WALShipper incrementally copies WAL segments to a ShipDest (a
	// follower's directory, or a network connection via ServeWALShip).
	WALShipper = wal.Shipper
	// WALShipOptions configures a WALShipper's chunk size. Every pass
	// ships the live segment too, not just sealed ones.
	WALShipOptions = wal.ShipOptions
	// WALShipDest receives shipped segment chunks.
	WALShipDest = wal.ShipDest
	// WALDirDest is a WALShipDest that writes chunks into a directory.
	WALDirDest = wal.DirDest
	// Replica is a warm standby: it replays a leader's shipped WAL into a
	// checkpoint-restored model and can be promoted to leader exactly once.
	Replica = replica.Replica
	// ReplicaOptions configures NewFollower (the WAL options the replica
	// reopens its directory with at promotion).
	ReplicaOptions = replica.Options
)

// Replication errors.
var (
	// ErrAlreadyPromoted fences double promotion: every Replica.Promote
	// after the first returns it.
	ErrAlreadyPromoted = replica.ErrAlreadyPromoted
	// ErrReplicaPromoted is returned by Replica.PollOnce once the replica
	// is a leader and follower polling must stop.
	ErrReplicaPromoted = replica.ErrPromoted
)

// NewFollower wraps a checkpoint-restored model as a warm standby that
// replays the shipped WAL accumulating in dir (Replica.PollOnce).
func NewFollower(m *Model, dir string, opts ReplicaOptions) (*Replica, error) {
	return replica.NewFollower(m, dir, opts)
}

// NewWALShipper ships WAL segments from dir to dest on every ShipNow.
func NewWALShipper(dir string, dest WALShipDest, opts WALShipOptions) *WALShipper {
	return wal.NewShipper(dir, dest, opts)
}

// ServeWALShip accepts follower connections on ln and streams srcDir to
// each until stop closes; next supplies the leader's NextIndex for lag
// heartbeats.
var ServeWALShip = wal.ServeShip

// FollowWALShip receives one leader connection's shipped segments through
// dest, invoking onHeartbeat with the leader's NextIndex. Pass
// Replica.ShipDest (not a raw WALDirDest) when the destination directory
// belongs to a promotable follower: it fences chunk writes the instant
// promotion begins, so a still-alive ex-leader cannot corrupt the new
// leader's log.
var FollowWALShip = wal.FollowShip

// StartPipeline starts the serving pipeline over a trained model.
func StartPipeline(m *Model, opts ...PipelineOption) *Pipeline { return async.New(m, opts...) }

// NewServer exposes a started pipeline as the v1 HTTP/JSON API.
func NewServer(p *Pipeline, opts ServerOptions) *Server { return serve.New(p, opts) }
