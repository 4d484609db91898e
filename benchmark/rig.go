package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"apan/internal/async"
	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/gdb"
	"apan/internal/serve"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

// rig is one complete set-up of one workload: the inputs generated from the
// seed and the system under test, built, warmed and started the way
// apan-serve starts it.
type rig struct {
	wl      string
	sz      sizes
	clients int

	// Inputs. ops[i] is operation i's events, a slice of the dataset's
	// stream after the warm-up prefix; bodies[i] is its pre-encoded request
	// body in the HTTP workloads. retire releases all three.
	ds     *dataset.Dataset
	ops    [][]tgraph.Event
	bodies [][]byte

	cfg   core.Config
	db    *gdb.DB
	model *core.Model
	log   *wal.Log // attached to model while serving; nil in the in-process workloads
	pipe  *async.Pipeline
	srv   *serve.Server
	hs    *http.Server
	url   string
	httpc []*http.Client
	dir   string  // scratch: write-ahead log, checkpoints
	tr    *tracer // nil unless this rig runs a traced pass

	next     int // first operation of the measured pass; those before it were the pre-roll
	accepted int // events accepted by the serving path so far, pre-roll included

	walDir string // the served model's log

	// recover only: what the leader left behind — its checkpoint and one
	// copy of its log per recoverer — and what it looked like.
	ckptPath string
	walDirs  []string
	digest   uint64
	logged   int

	setupTime time.Duration

	mu       sync.Mutex
	problems []string // output-verification failures, capped
}

func (r *rig) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *rig) http() bool { return r.wl == wlSingleOpen || r.wl == wlBatchClosed }

// replay applies events to m in batches through the serving path's own two
// calls, untimed. It is both the warm-up and the reference the wire-parity
// check compares against.
func replay(m *core.Model, events []tgraph.Event, batch int) {
	for len(events) > 0 {
		n := min(batch, len(events))
		inf := m.InferBatch(events[:n])
		m.ApplyInference(inf)
		inf.Release()
		events = events[n:]
	}
}

// setUp builds a rig from nothing. verify adds the checks that need a twin
// model; their cost is kept out of setupTime because it is the benchmark's,
// not the system's.
func setUp(o options, traced, verify bool) (_ *rig, err error) {
	start := time.Now()
	wl, sz, seed := o.workload, o.sz, o.seed
	r := &rig{wl: wl, sz: sz, clients: sz.clientsOf(wl)}
	// The load generator shares the machine with the system it loads. More
	// clients than cores measures the scheduler, which is how the legacy
	// *_p4/*_p8 rows of BENCH_apan.json lost their meaning; refuse.
	if r.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%s needs %d client goroutines and the machine has %d CPUs: the load generator may not outnumber the cores", wl, r.clients, runtime.NumCPU())
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.dir, err = os.MkdirTemp("", "apan-benchmark-"); err != nil {
		return nil, err
	}
	r.ds = dataset.Wikipedia(dataset.Config{Scale: sz.scale, Seed: seed})
	if err := r.planOps(o.seconds); err != nil {
		return nil, err
	}
	r.cfg = core.Config{NumNodes: r.ds.NumNodes, EdgeDim: r.ds.EdgeDim, Seed: seed}
	if err := r.cfg.Normalize(); err != nil {
		return nil, err
	}
	r.db = gdb.New(core.NewGraphStore(r.cfg))
	if r.model, err = core.NewWithDB(r.cfg, r.db); err != nil {
		return nil, err
	}
	replay(r.model, r.ds.Events[:sz.warm], sz.batch)
	if traced {
		submitter := spanSubmit // the span a batch's queue wait hangs under
		if r.http() {
			submitter = spanServe
		}
		r.tr = newTracer(len(r.ops), submitter)
		for i, op := range r.ops {
			r.tr.opOfTime[math.Float64bits(op[0].Time)] = int32(i)
		}
	}

	switch wl {
	case wlSingleOpen, wlBatchClosed:
		r.encodeBodies()
		if err := r.attachWAL(); err != nil {
			return nil, err
		}
		r.startPipeline(sz.queueCap)
		if err := r.startServer(); err != nil {
			return nil, err
		}
	case wlCycle:
		r.startPipeline(sz.queueCap)
	case wlSlowDB:
		// The warm-up above ran at memory speed; only serving pays the
		// simulated round trips.
		r.db.Latency = gdb.Constant(sz.dbLatency)
		r.db.Sleep = true
		r.startPipeline(sz.slowQueueCap)
	case wlRecover:
		if err := r.logLeader(); err != nil {
			return nil, err
		}
	}

	verifyTime, err := r.preroll(verify)
	if err != nil {
		return nil, err
	}
	r.setupTime = time.Since(start) - verifyTime
	return r, nil
}

// planOps cuts the stream after the warm-up prefix into operations: the
// pre-roll, then as many as the window can use (see sizes).
func (r *rig) planOps(seconds float64) error {
	sz := r.sz
	size, limit := sz.batch, len(r.ds.Events) // the closed loops: whatever the stream holds
	switch r.wl {
	case wlSingleOpen:
		size, limit = 1, int(sz.openRate*seconds)
	case wlRecover:
		limit = sz.recoverLogged
	}
	rest := r.ds.Events[min(sz.warm, len(r.ds.Events)):]
	n := min(sz.preroll[r.wl]+max(limit, 1), len(rest)/size)
	if n <= sz.preroll[r.wl] {
		return fmt.Errorf("%s: the stream holds %d events, too few for a warm-up of %d, a pre-roll of %d operations and one more", r.wl, len(r.ds.Events), sz.warm, sz.preroll[r.wl])
	}
	r.ops = make([][]tgraph.Event, n)
	for i := range r.ops {
		r.ops[i] = rest[i*size : (i+1)*size : (i+1)*size]
	}
	return nil
}

func appendEventJSON(b []byte, ev *tgraph.Event) []byte {
	b = append(b, `{"src":`...)
	b = strconv.AppendInt(b, int64(ev.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(ev.Dst), 10)
	b = append(b, `,"time":`...)
	b = strconv.AppendFloat(b, ev.Time, 'g', -1, 64)
	b = append(b, `,"feat":[`...)
	for i, f := range ev.Feat {
		if i > 0 {
			b = append(b, ',')
		}
		// The shortest form that parses back to the same float32, so that
		// the server scores bit-identical inputs.
		b = strconv.AppendFloat(b, float64(f), 'g', -1, 32)
	}
	return append(b, `]}`...)
}

// encodeBodies pre-encodes every request of the run, so that the load
// generator does no JSON encoding while the clock runs.
func (r *rig) encodeBodies() {
	r.bodies = make([][]byte, len(r.ops))
	for i, op := range r.ops {
		var b []byte
		if r.wl == wlSingleOpen {
			b = appendEventJSON(make([]byte, 0, 2048), &op[0])
		} else {
			b = append(make([]byte, 0, 2048*len(op)), `{"events":[`...)
			for j := range op {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendEventJSON(b, &op[j])
			}
			b = append(b, `]}`...)
		}
		r.bodies[i] = b
	}
}

func (r *rig) attachWAL() (err error) {
	r.walDir = filepath.Join(r.dir, "wal")
	if r.log, err = wal.Open(wal.Options{Dir: r.walDir, Policy: wal.SyncInterval}); err != nil {
		return err
	}
	return r.model.AttachWAL(r.log)
}

func (r *rig) startPipeline(queueCap int) {
	opts := []async.Option{
		async.WithQueueCap(queueCap),
		async.WithWorkers(1),
		async.WithBatchWindow(time.Millisecond),
	}
	if r.tr != nil {
		opts = append(opts, async.WithBeforeApply(r.tr.beforeApply))
	}
	r.pipe = async.New(r.model, opts...)
}

func (r *rig) startServer() error {
	r.srv = serve.New(r.pipe, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = r.srv
	if r.tr != nil {
		h = r.tr.middleware(h)
	}
	r.hs = &http.Server{Handler: h}
	go r.hs.Serve(ln) // returns once close shuts the server down
	r.url = "http://" + ln.Addr().String() + "/v1/score"
	for range r.clients {
		// One transport per client, so each client is one keep-alive
		// connection.
		r.httpc = append(r.httpc, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return nil
}

// logLeader is the recover workload's set-up: the warm leader writes its
// base checkpoint, logs the batches every recovery will replay, and stops.
func (r *rig) logLeader() error {
	r.ckptPath = filepath.Join(r.dir, "base.ckpt")
	if _, err := r.model.Checkpoint(r.ckptPath); err != nil {
		return err
	}
	if err := r.attachWAL(); err != nil {
		return err
	}
	for _, op := range r.ops {
		replay(r.model, op, r.sz.batch)
		r.logged += len(op)
	}
	r.digest = r.model.RuntimeDigest()
	err := r.model.DetachWAL().Close()
	r.log = nil
	if err != nil {
		return err
	}
	r.walDirs = []string{r.walDir}
	for c := 1; c < r.clients; c++ {
		dir := filepath.Join(r.dir, "wal-"+strconv.Itoa(c))
		if err := os.CopyFS(dir, os.DirFS(r.walDir)); err != nil {
			return err
		}
		r.walDirs = append(r.walDirs, dir)
	}
	return nil
}

// checkScores is the per-response output check: one score per event sent,
// each finite and a probability.
func checkScores(scores []float32, want int) error {
	if len(scores) != want {
		return fmt.Errorf("%d scores for %d events", len(scores), want)
	}
	for _, s := range scores {
		if !(s >= 0 && s <= 1) { // also catches NaN
			return fmt.Errorf("score %v outside [0,1]", s)
		}
	}
	return nil
}

// poster is one HTTP client's reusable request state.
type poster struct {
	r    *rig
	c    *http.Client
	buf  bytes.Buffer
	resp serve.ScoreResponse
}

// post sends operation op and verifies the response. The returned response
// is valid until the poster's next call.
func (p *poster) post(op int) (*serve.ScoreResponse, error) {
	req, err := http.NewRequest(http.MethodPost, p.r.url, bytes.NewReader(p.r.bodies[op]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if p.r.tr != nil {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	res, err := p.c.Do(req)
	if err != nil {
		return nil, err
	}
	p.buf.Reset()
	_, err = p.buf.ReadFrom(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", res.StatusCode, p.buf.Bytes())
	}
	p.resp = serve.ScoreResponse{Scores: p.resp.Scores[:0]}
	if err := json.Unmarshal(p.buf.Bytes(), &p.resp); err != nil {
		return nil, err
	}
	want := len(p.r.ops[op])
	scores := p.resp.Scores
	if p.r.wl == wlSingleOpen {
		if p.resp.Score == nil {
			return nil, errors.New("single-event response without a score")
		}
		scores = []float32{*p.resp.Score}
	}
	if p.resp.Count != want {
		return nil, fmt.Errorf("count %d for %d events", p.resp.Count, want)
	}
	return &p.resp, checkScores(scores, want)
}

func (r *rig) poster(client int) *poster { return &poster{r: r, c: r.httpc[client]} }

// preroll sends the first operations through the workload's full path,
// one at a time and untimed: connections open, the batcher, pools and log
// buffers reach their working size, and, where verify asks, the outputs are
// compared with a twin model's. It returns the time spent on the twin.
func (r *rig) preroll(verify bool) (verifyTime time.Duration, err error) {
	n := r.sz.preroll[r.wl]
	ctx := context.Background()
	switch r.wl {
	case wlSingleOpen:
		p := r.poster(0)
		for op := 0; op < n; op++ {
			if _, err := p.post(op); err != nil {
				return 0, fmt.Errorf("pre-roll request %d: %w", op, err)
			}
			r.accepted++
		}
	case wlBatchClosed:
		// Wire parity: over HTTP, JSON and the pipeline, these batches must
		// score bit for bit what the model's two calls score directly. The
		// twin is a checkpoint copy of the warmed model.
		var twin *core.Model
		if verify {
			t0 := time.Now()
			var ckpt bytes.Buffer
			if err := r.model.SaveCheckpoint(&ckpt); err != nil {
				return 0, err
			}
			if twin, err = core.New(r.cfg); err != nil {
				return 0, err
			}
			if err := twin.LoadCheckpoint(&ckpt); err != nil {
				return 0, err
			}
			verifyTime += time.Since(t0)
		}
		p := r.poster(0)
		for op := 0; op < n; op++ {
			resp, err := p.post(op)
			if err != nil {
				return 0, fmt.Errorf("pre-roll request %d: %w", op, err)
			}
			r.accepted += len(r.ops[op])
			if err := r.pipe.Drain(ctx); err != nil {
				return 0, err
			}
			if twin != nil {
				t0 := time.Now()
				inf := twin.InferBatch(r.ops[op])
				for i, s := range inf.Scores {
					if math.Float32bits(s) != math.Float32bits(resp.Scores[i]) {
						r.fail("wire parity: batch %d event %d scored %v over HTTP, %v directly", op, i, resp.Scores[i], s)
						break
					}
				}
				twin.ApplyInference(inf)
				inf.Release()
				verifyTime += time.Since(t0)
			}
		}
	case wlCycle, wlSlowDB:
		for op := 0; op < n; op++ {
			scores, _, err := r.pipe.Submit(ctx, r.ops[op])
			if err == nil {
				err = checkScores(scores, len(r.ops[op]))
			}
			if err != nil {
				return 0, fmt.Errorf("pre-roll batch %d: %w", op, err)
			}
			r.accepted += len(r.ops[op])
		}
	case wlRecover:
		n = 0 // the operations are the leader's log, not requests
		if _, err := r.recoverOnce(-1, r.walDirs[0]); err != nil {
			return 0, fmt.Errorf("pre-roll recovery: %w", err)
		}
	}
	r.next = n
	if r.pipe != nil {
		err = r.pipe.Drain(ctx)
	}
	return verifyTime, err
}

// checkDrained is the per-workload output check after the last Drain:
// nothing is left in the pipeline, the graph holds exactly the warm-up plus
// every accepted event, and the log reported no I/O error.
func (r *rig) checkDrained() {
	if r.pipe == nil {
		return
	}
	if st := r.pipe.Stats(); st.Submitted != st.Processed {
		r.fail("pipeline submitted %d batches but processed %d", st.Submitted, st.Processed)
	}
	if got, want := r.model.GraphEvents(), r.sz.warm+r.accepted; got != want {
		r.fail("graph holds %d events, want %d warm-up + %d accepted", got, r.sz.warm, r.accepted)
	}
	if r.log != nil {
		if err := r.log.Err(); err != nil {
			r.fail("write-ahead log: %v", err)
		}
	}
}

// heapMB is the live heap after two collections.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// retire measures the live heap of a rig that has been set up but not
// measured, with its inputs released, and closes it. Every rig reaches this
// point having applied the same events, so the reading does not depend on
// how far a faster or slower build gets inside the window.
func (r *rig) retire() float64 {
	r.ds, r.ops, r.bodies = nil, nil, nil
	mb := heapMB()
	r.close()
	return mb
}

// batcherStats reads the micro-batcher's counters the way an operator does,
// from GET /v1/stats.
func (r *rig) batcherStats() (serve.BatcherStats, error) {
	var st serve.StatsResponse
	res, err := r.httpc[0].Get(strings.TrimSuffix(r.url, "score") + "stats")
	if err != nil {
		return st.Batcher, err
	}
	defer res.Body.Close()
	return st.Batcher, json.NewDecoder(res.Body).Decode(&st)
}

// stop shuts down everything the rig started and leaves its model, idle,
// and its scratch directory.
func (r *rig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if r.hs != nil {
		r.hs.Shutdown(ctx)
		r.srv.Close()
		for _, c := range r.httpc {
			c.CloseIdleConnections()
		}
		r.hs = nil
	}
	if r.pipe != nil {
		r.pipe.Shutdown(ctx)
		r.pipe = nil
	}
	if r.log != nil {
		r.model.DetachWAL()
		r.log.Close()
		r.log = nil
	}
}

// close stops the rig and removes its scratch files.
func (r *rig) close() {
	r.stop()
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}
