package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apan/internal/tgraph"
)

// Span names. Spans of one operation share its op id; parent names the span
// that caused this one ("" for the operation's root).
const (
	spanClient    = "client"     // HTTP round trip, timed at the client
	spanServe     = "serve"      // serve.Server.ServeHTTP, timed by the middleware
	spanSubmit    = "submit"     // async.Pipeline.Submit, timed at the caller
	spanQueueWait = "queue_wait" // Submit returned → the batch reached WithBeforeApply
	spanRecover   = "recover"    // one whole recovery
	spanCkptLoad  = "ckpt_load"  // core.Model.LoadCheckpointFile
	spanWALOpen   = "wal_open"   // wal.Open
	spanReplay    = "replay"     // core.Model.RecoverWAL
	spanAttach    = "attach"     // core.Model.AttachWAL
)

const opHeader = "X-Bench-Op"

type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer records spans from the benchmark's side of each layer boundary:
// the program under test is not instrumented. What it writes to while the
// clock runs is allocated in set-up; only a pass that records more spans
// than set-up foresaw (recover, whose count depends on the build's speed)
// grows the slice.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span

	// submitEnd[op] is when the operation's Submit (in-process) or ServeHTTP
	// (HTTP) returned, the start of its batch's queue wait. Zero until then.
	submitEnd []atomic.Int64
	// opOfTime maps the timestamp of an operation's first event to the
	// operation, which is how the apply-side hook, handed only the events,
	// finds whose batch it holds. Read-only once set-up ends.
	opOfTime  map[uint64]int32
	submitter string // parent of queue_wait spans: whichever span encloses Submit
}

func newTracer(ops int, submitter string) *tracer {
	return &tracer{
		epoch:     time.Now(),
		spans:     make([]span, 0, 6*ops+64),
		submitEnd: make([]atomic.Int64, ops),
		opOfTime:  make(map[uint64]int32, ops),
		submitter: submitter,
	}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) record(name string, op int, parent string, start, end time.Time) {
	s := span{Name: name, Op: int32(op), Parent: parent, Start: t.since(start), End: t.since(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// durationsMS returns the durations of every span with the given name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.recorded() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// markSubmitted notes that op's synchronous part has returned.
func (t *tracer) markSubmitted(op int, at time.Time) {
	if op < len(t.submitEnd) {
		t.submitEnd[op].Store(t.since(at))
	}
}

// middleware wraps the server's handler with the serve span. The client
// names the operation in a request header.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.Atoi(r.Header.Get(opHeader))
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		if err == nil {
			t.record(spanServe, op, spanClient, start, end)
			t.markSubmitted(op, end)
		}
	})
}

// beforeApply is the async.WithBeforeApply hook: it closes the queue_wait
// span of the batch a propagation worker is about to apply. A batch that
// reaches the worker before its Submit has returned waited for nothing.
func (t *tracer) beforeApply(events []tgraph.Event) {
	now := time.Now()
	op, ok := t.opOfTime[math.Float64bits(events[0].Time)]
	if !ok {
		return
	}
	start := now
	if at := t.submitEnd[op].Load(); at != 0 && at < t.since(now) {
		start = t.epoch.Add(time.Duration(at))
	}
	t.record(spanQueueWait, int(op), t.submitter, start, now)
}

// writeTo writes the recorded spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
