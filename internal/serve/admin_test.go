package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apan/internal/async"
	"apan/internal/tgraph"
	"apan/internal/train"
)

func postAdmin(t *testing.T, url, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body []byte
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	return resp, body
}

// TestAdminTrainEndpoints: freeze/resume must flip the trainer state and
// report the served parameter version; without a trainer they 404.
func TestAdminTrainEndpoints(t *testing.T) {
	m := testModel(t)
	tr, err := train.New(m, train.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pipe := async.New(m, async.WithOnlineTrainer(tr))
	srv := New(pipe, Options{Trainer: tr})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		pipe.Shutdown(context.Background())
	})

	resp, body := postAdmin(t, ts.URL, "/v1/admin/train/freeze")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("freeze: %d %s", resp.StatusCode, body)
	}
	var ar TrainAdminResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Frozen || !tr.Frozen() {
		t.Fatalf("freeze did not take: %+v (trainer frozen %v)", ar, tr.Frozen())
	}

	resp, body = postAdmin(t, ts.URL, "/v1/admin/train/resume")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Frozen || tr.Frozen() {
		t.Fatalf("resume did not take: %+v (trainer frozen %v)", ar, tr.Frozen())
	}

	// Stats must carry the trainer block and the published version.
	resp, body = postStatsGet(t, ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Training == nil {
		t.Fatal("stats missing training block with a trainer attached")
	}
	if st.ParamVersion == 0 {
		t.Fatal("stats param_version is 0; construction publishes version ≥ 1")
	}
}

func postStatsGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body []byte
	buf := make([]byte, 8192)
	for {
		n, err := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	return resp, body
}

// TestAdminNoTrainer: admin endpoints without a wired trainer answer a
// structured 404.
func TestAdminNoTrainer(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for _, path := range []string{"/v1/admin/train/freeze", "/v1/admin/train/resume"} {
		resp, body := postAdmin(t, ts.URL, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if got := errCode(t, body); got != "no_trainer" {
			t.Fatalf("%s: code %q", path, got)
		}
	}
}

// TestCloseWaitsForInflightHandlers: Close must not return while a handler
// is still running, so Close → Pipeline.Shutdown can never yank the
// pipeline out from under a request. A slow propagation consumer
// (WithBeforeApply) keeps a batch-score handler inside Submit while Close
// runs.
func TestCloseWaitsForInflightHandlers(t *testing.T) {
	release := make(chan struct{})
	var applied atomic.Bool
	pipe := async.New(testModel(t),
		async.WithQueueCap(1),
		async.WithBeforeApply(func([]tgraph.Event) {
			<-release
			applied.Store(true)
		}))
	srv := New(pipe, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Fill the queue so the next batch Submit blocks on backpressure.
	var wg sync.WaitGroup
	inflight := func() {
		defer wg.Done()
		body := ScoreRequest{Events: []EventJSON{{Src: 0, Dst: 1, Time: 1, Feat: feat()}}}
		resp, _ := postScore(t, ts.URL, body)
		_ = resp
	}
	wg.Add(3)
	go inflight() // occupies the worker (parked on release)
	go inflight() // fills the 1-slot queue
	go inflight() // blocks inside Pipeline.Submit on backpressure
	for pipe.Stats().Submitted < 3 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the third reach the channel send

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still blocked in Submit")
	case <-time.After(50 * time.Millisecond):
	}

	close(release) // let the worker drain; handlers return; Close completes
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after handlers finished")
	}
	wg.Wait()
	if !applied.Load() {
		t.Fatal("no batch was ever applied")
	}
	if err := pipe.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
}
