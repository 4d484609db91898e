package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apan/internal/async"
	"apan/internal/core"
	"apan/internal/gdb"
	"apan/internal/tgraph"
)

const (
	testNodes = 8
	testDim   = 8
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	cfg := core.Config{
		NumNodes: testNodes, EdgeDim: testDim, Slots: 4, Neighbors: 4,
		Hops: 2, Heads: 2, Hidden: 16, BatchSize: 4, Seed: 1,
	}
	m, err := core.NewWithDB(cfg, gdb.New(tgraph.New(testNodes)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func feat() []float32 { return make([]float32, testDim) }

// newTestServer wires model → pipeline → Server → httptest and tears all
// three down in order.
func newTestServer(t testing.TB, opts Options, popts ...async.Option) (*httptest.Server, *async.Pipeline) {
	t.Helper()
	pipe := async.New(testModel(t), popts...)
	srv := New(pipe, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		pipe.Shutdown(context.Background())
	})
	return ts, pipe
}

func postScore(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/score", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func errCode(t testing.TB, raw []byte) string {
	t.Helper()
	var e ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("error body %q: %v", raw, err)
	}
	return e.Error.Code
}

func TestScoreSingle(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, raw := postScore(t, ts.URL, EventJSON{Src: 0, Dst: 1, Time: 1, Feat: feat()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Score == nil || *sr.Score <= 0 || *sr.Score >= 1 {
		t.Fatalf("score: %s", raw)
	}
	if sr.Count != 1 || sr.BatchSize < 1 || sr.SyncMicros < 0 {
		t.Fatalf("response: %s", raw)
	}
}

func TestScoreBatch(t *testing.T) {
	ts, pipe := newTestServer(t, Options{})
	events := []EventJSON{
		{Src: 0, Dst: 1, Time: 1, Feat: feat()},
		{Src: 1, Dst: 2, Time: 2, Feat: feat()},
		{Src: 2, Dst: 3, Time: 3, Feat: feat()},
	}
	resp, raw := postScore(t, ts.URL, ScoreRequest{Events: events})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var sr ScoreResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Scores) != 3 || sr.Count != 3 || sr.BatchSize != 3 {
		t.Fatalf("batch response: %s", raw)
	}
	if err := pipe.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if st := pipe.Stats(); st.Processed != 1 {
		t.Fatalf("batch should be one pipeline submission: %+v", st)
	}
}

func TestScoreMalformed(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errCode(t, out.Bytes()) != "bad_json" {
		t.Fatalf("status %d body %s", resp.StatusCode, out.Bytes())
	}
}

func TestScoreValidation(t *testing.T) {
	// MaxNodes bounds dynamic admission: IDs beyond it are structured 400s.
	ts, pipe := newTestServer(t, Options{MaxNodes: 2 * testNodes})
	cases := []struct {
		name string
		body any
		code string
	}{
		{"src beyond admission limit", EventJSON{Src: 2 * testNodes, Dst: 1, Time: 1, Feat: feat()}, "node_limit_exceeded"},
		{"dst negative", EventJSON{Src: 0, Dst: -1, Time: 1, Feat: feat()}, "node_out_of_range"},
		{"bad feat dim", EventJSON{Src: 0, Dst: 1, Time: 1, Feat: make([]float32, testDim+1)}, "bad_feat_dim"},
		{"bad batch member", ScoreRequest{Events: []EventJSON{
			{Src: 0, Dst: 1, Time: 1, Feat: feat()},
			{Src: 0, Dst: 99, Time: 2, Feat: feat()},
		}}, "node_limit_exceeded"},
		{"ambiguous body", map[string]any{
			"src": 0, "dst": 1, "time": 1, "feat": feat(),
			"events": []EventJSON{{Src: 0, Dst: 1, Time: 1, Feat: feat()}},
		}, "ambiguous_body"},
		{"empty batch", map[string]any{"events": []EventJSON{}}, "empty_batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postScore(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			if got := errCode(t, raw); got != tc.code {
				t.Fatalf("code %q, want %q", got, tc.code)
			}
		})
	}
	// Nothing invalid may have reached the model, and nothing may have been
	// admitted as a side effect of a rejected request.
	if st := pipe.Stats(); st.Submitted != 0 {
		t.Fatalf("invalid requests reached the pipeline: %+v", st)
	}
	if pipe.NumNodes() != testNodes {
		t.Fatalf("rejected requests grew the model to %d nodes", pipe.NumNodes())
	}
}

func TestDynamicNodeAdmission(t *testing.T) {
	ts, pipe := newTestServer(t, Options{MaxNodes: 64})

	// An event naming unseen node IDs is admitted, scored and propagated —
	// the old out-of-range 400 is gone.
	resp, raw := postScore(t, ts.URL, ScoreRequest{Events: []EventJSON{
		{Src: 0, Dst: 41, Time: 1, Feat: feat()},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unseen dst not admitted: %d %s", resp.StatusCode, raw)
	}
	if got := pipe.NumNodes(); got != 42 {
		t.Fatalf("node space after admission: %d, want 42", got)
	}
	if err := pipe.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}

	// The admitted node now has streaming state: a follow-up event scores
	// against its written-back embedding and mailbox.
	resp, raw = postScore(t, ts.URL, EventJSON{Src: 41, Dst: 1, Time: 2, Feat: feat()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up on admitted node: %d %s", resp.StatusCode, raw)
	}

	// Admission is monotone: smaller IDs do not shrink the space.
	resp, _ = postScore(t, ts.URL, EventJSON{Src: 3, Dst: 2, Time: 3, Feat: feat()})
	if resp.StatusCode != http.StatusOK || pipe.NumNodes() != 42 {
		t.Fatalf("node space moved: %d", pipe.NumNodes())
	}

	// The limit still holds.
	resp, raw = postScore(t, ts.URL, EventJSON{Src: 64, Dst: 0, Time: 4, Feat: feat()})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "node_limit_exceeded" {
		t.Fatalf("limit not enforced: %d %s", resp.StatusCode, raw)
	}
}

func TestStrictValidationOptOut(t *testing.T) {
	// MaxNodes < 0 restores the strict pre-admission behavior: any ID
	// beyond the configured node space is rejected.
	ts, pipe := newTestServer(t, Options{MaxNodes: -1})
	resp, raw := postScore(t, ts.URL, EventJSON{Src: testNodes, Dst: 0, Time: 1, Feat: feat()})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "node_limit_exceeded" {
		t.Fatalf("strict mode admitted: %d %s", resp.StatusCode, raw)
	}
	if pipe.NumNodes() != testNodes {
		t.Fatalf("strict mode grew the model: %d", pipe.NumNodes())
	}
}

func TestStatsAndHealthz(t *testing.T) {
	ts, pipe := newTestServer(t, Options{})
	postScore(t, ts.URL, ScoreRequest{Events: []EventJSON{{Src: 0, Dst: 1, Time: 1, Feat: feat()}}})
	if err := pipe.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Pipeline.Submitted != 1 || st.Pipeline.Processed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// One applied event mailed both endpoints: two mailboxes, two blocks.
	if mb := st.Mailbox; mb.NodesWithMail != 2 || mb.LiveBlocks != 2 || mb.FreeBlocks != 0 || mb.Bytes <= 0 {
		t.Fatalf("stats mailbox: %+v", mb)
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Fatalf("healthz: %+v", h)
	}
}

func TestExplain(t *testing.T) {
	ts, pipe := newTestServer(t, Options{})

	// Build some mailbox history, then score an event touching node 0.
	warm := []EventJSON{
		{Src: 0, Dst: 1, Time: 1, Feat: feat()},
		{Src: 2, Dst: 0, Time: 2, Feat: feat()},
	}
	postScore(t, ts.URL, ScoreRequest{Events: warm})
	if err := pipe.Drain(t.Context()); err != nil { // let propagation deliver the mails
		t.Fatal(err)
	}
	postScore(t, ts.URL, ScoreRequest{Events: []EventJSON{{Src: 0, Dst: 3, Time: 5, Feat: feat()}}})
	if err := pipe.Drain(t.Context()); err != nil { // node 0's newest mail is now the time-5 event's
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/explain/0")
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	_, _ = raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d: %s", resp.StatusCode, raw.Bytes())
	}
	var ex ExplainResponse
	if err := json.Unmarshal(raw.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Node != 0 || ex.Time != 5 || len(ex.MailWeights) == 0 {
		t.Fatalf("explain: %s", raw.Bytes())
	}
	var sum float32
	for _, w := range ex.MailWeights {
		sum += w
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("mail weights must sum to 1: %v", ex.MailWeights)
	}

	// A node without mail is a 404, not a 500.
	resp, err = http.Get(ts.URL + "/v1/explain/7")
	if err != nil {
		t.Fatal(err)
	}
	raw.Reset()
	_, _ = raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || errCode(t, raw.Bytes()) != "no_explanation" {
		t.Fatalf("explain miss: %d %s", resp.StatusCode, raw.Bytes())
	}

	// Out-of-range and non-integer nodes are structured 400s.
	for _, path := range []string{"/v1/explain/999", "/v1/explain/banana"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// waitFor polls cond until it holds; the conditions here are states another
// goroutine reaches on its own, with nothing to signal the test.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// wedgeLane leaves the batcher's one flush lane busy: with a queue of one
// and the applier parked in hook, the first event is held in the hook, the
// second fills the queue, and the third's flush blocks inside Submit until
// release is closed. It returns once that flush is inside Submit.
func wedgeLane(t testing.TB, pipe *async.Pipeline, score func(i int)) {
	t.Helper()
	score(0)
	score(1)
	go score(2)
	waitFor(t, "the third flush to enter Submit", func() bool { return pipe.Stats().Submitted == 3 })
}

func TestMicroBatcherCoalesces(t *testing.T) {
	// Requests that arrive while the flush lane is busy must ride one
	// submission when it frees — with no timing involved.
	release := make(chan struct{})
	ts, pipe := newTestServer(t, Options{}, async.WithQueueCap(1),
		async.WithBeforeApply(func([]tgraph.Event) { <-release }))
	post := func(c int) ScoreResponse {
		resp, raw := postScore(t, ts.URL, EventJSON{
			Src: int32(c % testNodes), Dst: int32((c + 1) % testNodes),
			Time: float64(c + 1), Feat: feat(),
		})
		var sr ScoreResponse
		if resp.StatusCode != http.StatusOK {
			t.Errorf("request %d: status %d %s", c, resp.StatusCode, raw)
		} else if err := json.Unmarshal(raw, &sr); err != nil {
			t.Error(err)
		}
		return sr
	}
	var wedged sync.WaitGroup
	wedged.Add(1)
	wedgeLane(t, pipe, func(i int) {
		if i == 2 {
			defer wedged.Done()
		}
		if sr := post(i); sr.BatchSize != 1 {
			t.Errorf("request %d found the lane free and must have flushed alone: batch_size %d", i, sr.BatchSize)
		}
	})

	const clients = 16
	var wg sync.WaitGroup
	sizes := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sizes[c] = post(3 + c).BatchSize
		}(c)
	}
	waitFor(t, "16 requests to pile up behind the busy lane", func() bool {
		return getStats(t, ts.URL).Batcher.Pending == clients
	})
	close(release)
	wg.Wait()
	wedged.Wait()
	if err := pipe.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}

	for c, s := range sizes {
		if s != clients {
			t.Fatalf("request %d rode a batch of %d, want %d: %v", c, s, clients, sizes)
		}
	}
	if st := pipe.Stats(); st.Submitted != 4 {
		t.Fatalf("%d submissions for 3 lone requests and %d coalesced ones, want 4", st.Submitted, clients)
	}
	want := BatcherStats{Flushes: 4, Coalesced: 3 + clients, MeanBatch: float64(3+clients) / 4}
	if got := getStats(t, ts.URL).Batcher; got != want {
		t.Fatalf("batcher stats %+v, want %+v", got, want)
	}
}

func TestBatcherLoneRequestAndClose(t *testing.T) {
	ev := func(i int) tgraph.Event {
		return tgraph.Event{Src: 0, Dst: 1, Time: float64(i + 1), Feat: feat(), Label: -1}
	}
	t.Run("a lone request is scored with no second arrival", func(t *testing.T) {
		pipe := async.New(testModel(t))
		defer pipe.Shutdown(context.Background())
		b := NewBatcher(pipe)
		defer b.Close()
		score, _, size, err := b.Score(t.Context(), ev(0))
		if err != nil || size != 1 || !(score > 0 && score < 1) {
			t.Fatalf("score %v size %d err %v", score, size, err)
		}
	})
	t.Run("Close flushes what is pending", func(t *testing.T) {
		release := make(chan struct{})
		pipe := async.New(testModel(t), async.WithQueueCap(1),
			async.WithBeforeApply(func([]tgraph.Event) { <-release }))
		defer pipe.Shutdown(context.Background())
		b := NewBatcher(pipe)
		var wg sync.WaitGroup
		score := func(i int) {
			defer wg.Done()
			if _, _, _, err := b.Score(context.Background(), ev(i)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}
		const waiting = 3
		wg.Add(3 + waiting)
		wedgeLane(t, pipe, score)
		for i := 0; i < waiting; i++ {
			go score(3 + i)
		}
		waitFor(t, "requests to pile up behind the busy lane", func() bool { return b.Stats().Pending == waiting })
		closed := make(chan struct{})
		go func() {
			b.Close()
			close(closed)
		}()
		// Close has nothing to cancel the wedged flush with: it must wait.
		select {
		case <-closed:
			t.Fatal("Close returned with a flush in flight and requests pending")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-closed
		wg.Wait() // every pending request was scored, none refused
		if st := b.Stats(); st.Coalesced != 3+waiting || st.Pending != 0 {
			t.Fatalf("after Close: %+v", st)
		}
		if _, _, _, err := b.Score(context.Background(), ev(9)); !errors.Is(err, async.ErrClosed) {
			t.Fatalf("Score after Close: %v", err)
		}
	})
}

func TestServerCloseRejectsScores(t *testing.T) {
	pipe := async.New(testModel(t))
	defer pipe.Shutdown(context.Background())
	srv := New(pipe, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.Close()
	body, _ := json.Marshal(EventJSON{Src: 0, Dst: 1, Time: 1, Feat: feat()})
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, out.Bytes())
	}
	// Requests arriving after Close are rejected at the door, before they
	// can touch the batcher or pipeline (the in-flight handler accounting
	// makes Close safe to follow with Pipeline.Shutdown).
	if got := errCode(t, out.Bytes()); got != "server_closing" {
		t.Fatalf("code %q", got)
	}
}

// TestStalledBodiesPinLittleMemory: a client that declares a body at the
// 16 MiB cap and then stalls holds a handler, but not a buffer of the
// declared size. Eight of them grew the heap by 128 MB when the buffer was
// sized from Content-Length alone.
func TestStalledBodiesPinLittleMemory(t *testing.T) {
	const clients = 8
	pipe := async.New(testModel(t))
	defer pipe.Shutdown(context.Background())
	srv := New(pipe, Options{})
	defer srv.Close()
	var entered atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered.Add(1)
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/score HTTP/1.1\r\nHost: apan\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{", maxBodyBytes)
	}
	for deadline := time.Now().Add(10 * time.Second); entered.Load() < clients; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests reached the handler", entered.Load(), clients)
		}
	}
	time.Sleep(200 * time.Millisecond) // each handler sizes its buffer, then blocks reading
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 16<<20 {
		t.Fatalf("%d stalled requests grew the heap by %.1f MB, want < 16 MB", clients, float64(grown)/1e6)
	}
}

func TestMethodAndRouteHygiene(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/score") // GET on a POST route
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/score: %d", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v2/stats", ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unversioned route: %d", resp.StatusCode)
	}
}

// TestScoreCostIndependentOfHistory: what a /v1/score request allocates must
// not depend on how many batches the pipeline has already scored. Reading
// queue_depth through Pipeline.Stats copied (and sorted) the whole latency
// history per response — 8 bytes and a compare-sort step for every batch
// since start-up.
func TestScoreCostIndependentOfHistory(t *testing.T) {
	pipe := async.New(testModel(t))
	srv := New(pipe, Options{})
	t.Cleanup(func() {
		srv.Close()
		pipe.Shutdown(context.Background())
	})
	now := 0.0
	batch := func() []byte {
		now++
		body, err := json.Marshal(ScoreRequest{Events: []EventJSON{
			{Src: 0, Dst: 1, Time: now, Feat: feat()}, {Src: 1, Dst: 2, Time: now, Feat: feat()},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// bytesPerRequest drives the handler directly — no HTTP client or
	// connection goroutines in the count — and waits out the asynchronous
	// link, so both readings cover the same work.
	bytesPerRequest := func() uint64 {
		const requests = 64
		bodies := make([][]byte, requests)
		for i := range bodies {
			bodies[i] = batch()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
		if err := pipe.Drain(t.Context()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / requests
	}
	bytesPerRequest() // warm pools and lazily built state
	young := bytesPerRequest()
	const history = 10000 // × 8 B of latency samples = 80 KB per Stats call
	for i := 0; i < history; i++ {
		now++
		if _, _, err := pipe.Submit(t.Context(), []tgraph.Event{{Src: 0, Dst: 1, Time: now, Feat: feat()}}); err != nil {
			t.Fatal(err)
		}
	}
	old := bytesPerRequest()
	// TotalAlloc is process-wide (slice growth in the stores and histories
	// lands in it too), hence the slack: a third of what the bug costs.
	if old > young+history*8/3 {
		t.Fatalf("a request allocated %d B after %d more batches, %d B before: per-request cost grows with history", old, history, young)
	}
}
