package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The five workloads. Their order here is the order a suite run executes
// and reports them in.
const (
	wlSingleOpen  = "http_single_open"
	wlBatchClosed = "http_batch_closed"
	wlCycle       = "inproc_cycle"
	wlSlowDB      = "inproc_slowdb"
	wlRecover     = "recover"
)

var workloadNames = []string{wlSingleOpen, wlBatchClosed, wlCycle, wlSlowDB, wlRecover}

// sizes holds every count of the benchmark. The measured window is set by
// -seconds; these fix the shape of the work inside it. Stream lengths are
// upper limits: a closed loop that reaches its limit before the window ends
// stops there (inproc_cycle does at the seed), which keeps a faster build's
// metrics valid without paying for an unbounded stream in every set-up.
type sizes struct {
	scale     float64 // dataset.Wikipedia scale; 1 is the paper's 157,474 events
	warm      int     // events replayed through the model before anything is timed
	batch     int     // events per batch, the paper's operating point
	setupReps int     // complete set-ups per untraced run; setup_s is their median
	clients   int     // load goroutines: connections of the HTTP workloads, concurrent recoveries

	openRate      float64 // http_single_open: requests per second
	recoverLogged int     // recover: batches in the log every recovery replays
	minRecoveries int     // recover: recoveries timed even when the window is shorter

	// preroll is the operations sent through the full path during set-up;
	// recover's pre-roll is one recovery.
	preroll map[string]int

	queueCap     int           // propagation queue bound (apan-serve's default)
	slowQueueCap int           // inproc_slowdb's bound, see README "Deviations"
	dbLatency    time.Duration // inproc_slowdb: simulated graph-DB round trip

	ladderBatches int // most batches the layer ladder times
}

var fullSizes = sizes{
	scale:         1,
	warm:          10000,
	batch:         200,
	setupReps:     3,
	clients:       2,
	openRate:      300,
	recoverLogged: 40,
	minRecoveries: 3,
	preroll:       map[string]int{wlSingleOpen: 50, wlBatchClosed: 5, wlCycle: 5, wlSlowDB: 2},
	queueCap:      256,
	slowQueueCap:  8,
	dbLatency:     time.Millisecond,
	ladderBatches: 200,
}

// clientsOf is how many goroutines generate a workload's load. Every
// workload keeps both cores of the reference box busy, because a lone busy
// core there runs at a speed that wanders by a third (README, "Deviations");
// inproc_slowdb's submitter spends its time blocked on a full queue, so a
// second one would add nothing.
func (sz sizes) clientsOf(workload string) int {
	if workload == wlSlowDB {
		return 1
	}
	return sz.clients
}

// smokeSizes run every code path of the benchmark in a few seconds for the
// package's own test; their numbers mean nothing.
var smokeSizes = func() sizes {
	sz := fullSizes
	sz.scale, sz.warm, sz.batch, sz.setupReps = 0.02, 400, 20, 1
	sz.recoverLogged, sz.minRecoveries, sz.ladderBatches = 3, 2, 3
	sz.preroll = map[string]int{wlSingleOpen: 5, wlBatchClosed: 2, wlCycle: 1, wlSlowDB: 1}
	return sz
}()

// Latency limits behind on_time_frac: an operation is on time when it
// succeeds within its workload's limit, counted from its due time in the
// open loop and from its start in the closed loops. The open loop's limit
// is the caller's; the others are about twice the seed's median.
var onTimeLimit = map[string]time.Duration{
	wlSingleOpen:  5 * time.Millisecond,
	wlBatchClosed: 70 * time.Millisecond,
	wlCycle:       50 * time.Millisecond,
	wlSlowDB:      500 * time.Millisecond,
	wlRecover:     2 * time.Second,
}

// metricSpec is one metric of BENCHMARK.json. Bound is present only on
// end-to-end metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the one place metric names, units,
// directions and regression bounds are stored; the program reads it rather
// than repeating them.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or the nearest
// directory above it (the program runs from the root of the checkout, the
// package's test from the benchmark's own directory).
func loadSpec() (*benchSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s benchSpec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// layerNames is every per-layer metric a traced run reports, in the order
// BENCHMARK.json lists them. Names are <module>.<what>.
var layerNames = []string{
	"serve.wire_us_per_req", "serve.self_us_per_req", "serve.body_kb_per_req", "serve.batch_mean",
	"async.submit_self_us", "async.queue_wait_ms_p50", "async.queue_wait_ms_p95",
	"async.queue_depth_max", "async.apply_ms_per_batch",
	"core.infer_us_per_event", "core.infer_self_us_per_event", "core.gather_us_per_event",
	"core.encode_us_per_event", "core.decode_us_per_event", "core.apply_us_per_event",
	"core.propagate_us_per_event", "core.allocs_per_event", "core.ckpt_load_ms",
	"nn.mha_us_per_event", "nn.timeenc_us_per_event", "tensor.gemm_gflops",
	"state.read_ns_per_node", "state.write_ns_per_node",
	"mailbox.read_ns_per_node", "mailbox.deliver_ns_per_mail",
	"tgraph.khop_us_per_event", "tgraph.add_ns_per_event",
	"gdb.rpcs_per_event", "gdb.sim_ms_per_batch",
	"wal.commit_us_per_batch", "wal.bytes_per_event", "wal.fsyncs", "wal.replay_us_per_event",
	"wal.attach_retry_frac",
	"gen.late_frac", "gen.late_p99_ms",
	"client.score_p95_ms", "client.score_p99_ms", "client.sync_p95_ms",
	"trace.overhead_frac", "ladder.batches",
}
