package apan_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"apan"
)

// TestEndToEndPublicAPI exercises the full downstream-user journey through
// the public package only: generate data, train, evaluate, serve through
// the asynchronous pipeline, checkpoint, restore, keep serving.
func TestEndToEndPublicAPI(t *testing.T) {
	ds := apan.Wikipedia(apan.DatasetConfig{Scale: 0.015, Seed: 5})
	if ds.NumNodes == 0 || ds.EdgeDim != 172 {
		t.Fatalf("dataset shape: %d nodes, %d dims", ds.NumNodes, ds.EdgeDim)
	}
	split := ds.Split(0.70, 0.15)

	db := apan.NewGraphDB(apan.NewGraph(ds.NumNodes))
	db.Latency = apan.ConstantLatency(50 * time.Microsecond)
	model, err := apan.NewWithDB(apan.Config{
		NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim,
		Slots: 5, Neighbors: 5, BatchSize: 100, LR: 1e-3, Seed: 5,
	}, db)
	if err != nil {
		t.Fatal(err)
	}

	ns := apan.NewNegSampler(ds.NumNodes)
	var lastLoss float64
	for epoch := 0; epoch < 3; epoch++ {
		model.ResetRuntime()
		tr := model.TrainEpoch(split.Train, ns)
		lastLoss = tr.Loss
	}
	if lastLoss <= 0 || lastLoss != lastLoss {
		t.Fatalf("bad training loss %v", lastLoss)
	}

	val := model.EvalStream(split.Val, ns)
	if val.AP != val.AP || val.AP <= 0.5 {
		t.Fatalf("val AP %v", val.AP)
	}

	// Serve a slice of the test stream through the pipeline and the v1
	// HTTP API in front of it.
	if len(split.Test) < 250 {
		t.Fatalf("test split too small for the scenario: %d", len(split.Test))
	}
	ctx := context.Background()
	pipe := apan.StartPipeline(model, apan.WithQueueCap(16))
	served := split.Test[:200]
	for lo := 0; lo < 150; lo += 50 {
		scores, lat, err := pipe.Submit(ctx, served[lo:lo+50])
		if err != nil {
			t.Fatal(err)
		}
		if len(scores) != 50 {
			t.Fatalf("scores: %d", len(scores))
		}
		if lat <= 0 {
			t.Fatal("no sync latency measured")
		}
	}

	srv := apan.NewServer(pipe, apan.ServerOptions{})
	hs := httptest.NewServer(srv)
	lastBatch := struct {
		Events []apan.Event `json:"events"`
	}{Events: served[150:200]}
	body, err := json.Marshal(lastBatch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var scored struct {
		Scores []float32 `json:"scores"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scored); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(scored.Scores) != 50 {
		t.Fatalf("HTTP score: status %d, %d scores", resp.StatusCode, len(scored.Scores))
	}
	hs.Close()
	srv.Close()

	if err := pipe.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := pipe.Stats()
	if st.Processed != 4 {
		t.Fatalf("pipeline processed %d", st.Processed)
	}
	if err := pipe.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Checkpoint and restore into a fresh replica.
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, err := model.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	replica, err := apan.NewWithDB(apan.Config{
		NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim,
		Slots: 5, Neighbors: 5, BatchSize: 100, LR: 1e-3, Seed: 5,
	}, apan.NewGraphDB(apan.NewGraph(ds.NumNodes)))
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	probe := split.Test[200:250]
	a := model.Score(probe, new(apan.Pending))
	b := replica.Score(probe, new(apan.Pending))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replica diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}

	// Interpretability surface.
	if _, ok := model.Explain(probe[0].Src); !ok {
		t.Log("probe src had no mailbox history (acceptable)")
	}

	// Embedding API.
	emb := model.Embed([]apan.NodeID{0, 1}, []float64{1e6, 1e6})
	if emb.Rows != 2 || emb.Cols != ds.EdgeDim {
		t.Fatalf("embed shape %dx%d", emb.Rows, emb.Cols)
	}
}

// TestDatasetVariantsPublicAPI covers the other two generators through the
// public surface.
func TestDatasetVariantsPublicAPI(t *testing.T) {
	r := apan.Reddit(apan.DatasetConfig{Scale: 0.002, Seed: 2})
	if !r.Bipartite || r.Name != "reddit" {
		t.Fatalf("reddit: %+v", r.Name)
	}
	a := apan.Alipay(apan.DatasetConfig{Scale: 0.0005, Seed: 2})
	if a.Bipartite || a.EdgeDim != 101 {
		t.Fatalf("alipay: %s dim %d", a.Name, a.EdgeDim)
	}
}
