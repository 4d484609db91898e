package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"apan/internal/async"
	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/eval"
	"apan/internal/serve"
	"apan/internal/tgraph"
)

// runOutcome is what every driver reports back to the invariant layer: the
// per-batch scores (nil for dropped batches), the per-batch drop flags, the
// final runtime digest, and the model for post-run store inspection.
type runOutcome struct {
	scores    [][]float32
	dropped   []bool
	digest    uint64
	applied   int // events inserted into the temporal graph during the streamed part
	submitted int // events offered to the system
	hist      eval.LatencyHist
	maxDepth  int
	model     *core.Model
	samples   []labeledSample // labeled-event samples for the fraud head (direct path only)
}

func (r *runOutcome) droppedEvents(batches [][]tgraph.Event) int {
	var n int
	for i, d := range r.dropped {
		if d {
			n += len(batches[i])
		}
	}
	return n
}

// newModel builds one path's model. Every path of a scenario uses the same
// config and seed, so parameters, dropout draws and negative samples are
// identical across paths — any score divergence is the serving layer's
// fault, not initialization noise.
func newModel(tr *Trace, o RunOptions) (*core.Model, error) {
	return core.New(core.Config{
		NumNodes: tr.NumNodes, EdgeDim: tr.EdgeDim,
		Slots: 6, Neighbors: 5, Hops: 2, Heads: 2, Hidden: 32,
		BatchSize: o.BatchSize, Seed: o.Seed + 7,
		EvictMaxNodes: o.EvictMaxNodes,
	})
}

// prepModel optionally trains on the trace prefix (identically per path) and
// returns the stream remainder. Training warms parameters so labeled
// scenarios report meaningful AP/AUC instead of coin flips.
func prepModel(m *core.Model, tr *Trace, o RunOptions, trainFrac float64) []tgraph.Event {
	stream := tr.Events
	if trainFrac <= 0 {
		return stream
	}
	cut := int(trainFrac * float64(len(stream)))
	if cut == 0 {
		return stream
	}
	m.EnsureNodes(tr.MaxNodes)
	ns := dataset.NewNegSampler(tr.MaxNodes)
	m.TrainEpoch(stream[:cut], ns)
	return stream[cut:]
}

// splitBatches cuts the stream into arrival-order batches.
func splitBatches(events []tgraph.Event, size int) [][]tgraph.Event {
	var out [][]tgraph.Event
	for lo := 0; lo < len(events); lo += size {
		hi := lo + size
		if hi > len(events) {
			hi = len(events)
		}
		out = append(out, events[lo:hi])
	}
	return out
}

// ensureBatch grows the node space to cover the batch, the explicit
// counterpart of the HTTP layer's dynamic admission.
func ensureBatch(ensure func(int), batch []tgraph.Event) {
	var maxID tgraph.NodeID = -1
	for _, ev := range batch {
		if ev.Src > maxID {
			maxID = ev.Src
		}
		if ev.Dst > maxID {
			maxID = ev.Dst
		}
	}
	ensure(int(maxID) + 1)
}

// runDirect drives the stream through core.Model with no serving layer:
// Score then ApplyPending, strictly sequenced. This is the reference
// semantics every other path's scores are compared against, and the
// deterministic replay path. With collectSamples it additionally gathers
// labeled-event embeddings for the fraud head (a side read via Embed — no
// state effects, so scores are identical either way).
func runDirect(tr *Trace, o RunOptions, trainFrac float64, collectSamples bool) (*runOutcome, error) {
	m, err := newModel(tr, o)
	if err != nil {
		return nil, err
	}
	stream := prepModel(m, tr, o, trainFrac)
	batches := splitBatches(stream, o.BatchSize)
	out := &runOutcome{model: m, submitted: len(stream), dropped: make([]bool, len(batches))}
	base := m.DB().G.NumEvents()
	var p core.Pending
	for _, b := range batches {
		ensureBatch(m.EnsureNodes, b)
		start := time.Now()
		m.Score(b, &p)
		out.hist.Add(time.Since(start))
		out.scores = append(out.scores, append([]float32(nil), p.Scores...))
		m.ApplyPending(&p)
		if collectSamples {
			out.samples = collectLabeled(m, b, out.samples)
		}
	}
	out.applied = m.DB().G.NumEvents() - base
	out.digest = m.RuntimeDigest()
	return out, nil
}

// runPipeline drives the stream through async.Pipeline. With drainPerBatch
// the (infer, apply) sequencing matches runDirect exactly, so scores must be
// bitwise identical; without it (slowApply > 0), scoring overlaps a delayed
// consumer — real backpressure, observed rather than asserted.
func runPipeline(tr *Trace, o RunOptions, trainFrac float64, drainPerBatch bool, slowApply time.Duration) (*runOutcome, error) {
	m, err := newModel(tr, o)
	if err != nil {
		return nil, err
	}
	stream := prepModel(m, tr, o, trainFrac)
	batches := splitBatches(stream, o.BatchSize)
	opts := []async.Option{async.WithQueueCap(o.QueueCap)}
	if slowApply > 0 {
		opts = append(opts, async.WithBeforeApply(func([]tgraph.Event) { time.Sleep(slowApply) }))
	}
	pipe := async.New(m, opts...)
	out := &runOutcome{model: m, submitted: len(stream), dropped: make([]bool, len(batches))}
	base := m.DB().G.NumEvents()
	ctx := context.Background()
	for _, b := range batches {
		ensureBatch(pipe.EnsureNodes, b)
		scores, lat, err := pipe.Submit(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("scenario: pipeline submit: %w", err)
		}
		out.hist.Add(lat)
		out.scores = append(out.scores, scores)
		if drainPerBatch {
			if err := pipe.Drain(ctx); err != nil {
				return nil, fmt.Errorf("scenario: pipeline drain: %w", err)
			}
		}
	}
	if err := pipe.Drain(ctx); err != nil {
		return nil, fmt.Errorf("scenario: pipeline drain: %w", err)
	}
	out.maxDepth = pipe.Stats().MaxQueueDepth
	if err := pipe.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("scenario: pipeline shutdown: %w", err)
	}
	out.applied = m.DB().G.NumEvents() - base
	out.digest = m.RuntimeDigest()
	return out, nil
}

// runHTTP drives the stream through the full serving surface: JSON batches
// POSTed to /v1/score on an httptest server over a pipeline, with dynamic
// node admission handled by the server (Options.MaxNodes), draining between
// batches for direct-path sequencing. Score parity across this path proves
// the wire format round-trips float32 scores bitwise.
func runHTTP(tr *Trace, o RunOptions, trainFrac float64) (*runOutcome, error) {
	m, err := newModel(tr, o)
	if err != nil {
		return nil, err
	}
	stream := prepModel(m, tr, o, trainFrac)
	batches := splitBatches(stream, o.BatchSize)
	pipe := async.New(m, async.WithQueueCap(o.QueueCap))
	srv := serve.New(pipe, serve.Options{MaxNodes: tr.MaxNodes})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	ctx := context.Background()

	out := &runOutcome{model: m, submitted: len(stream), dropped: make([]bool, len(batches))}
	base := m.DB().G.NumEvents()
	for _, b := range batches {
		scores, lat, err := postScore(ts.URL, b)
		if err != nil {
			return nil, err
		}
		out.hist.Add(lat)
		out.scores = append(out.scores, scores)
		if err := pipe.Drain(ctx); err != nil {
			return nil, fmt.Errorf("scenario: http drain: %w", err)
		}
	}
	out.maxDepth = pipe.Stats().MaxQueueDepth
	if err := pipe.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("scenario: http shutdown: %w", err)
	}
	out.applied = m.DB().G.NumEvents() - base
	out.digest = m.RuntimeDigest()
	return out, nil
}

func postScore(baseURL string, batch []tgraph.Event) ([]float32, time.Duration, error) {
	req := struct {
		Events []serve.EventJSON `json:"events"`
	}{Events: make([]serve.EventJSON, len(batch))}
	for i, ev := range batch {
		req.Events[i] = serve.EventJSON{Src: ev.Src, Dst: ev.Dst, Time: ev.Time, Feat: ev.Feat}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.Post(baseURL+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("scenario: POST /v1/score: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb serve.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return nil, 0, fmt.Errorf("scenario: POST /v1/score: HTTP %d %s: %s", resp.StatusCode, eb.Error.Code, eb.Error.Message)
	}
	var sr serve.ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, 0, err
	}
	return sr.Scores, time.Duration(sr.SyncMicros) * time.Microsecond, nil
}

// runSaturated executes the deterministic queue-saturation protocol:
//
//  1. the applier parks on a gate the moment it picks up the first batch
//     (WithBeforeApply), so the queue's free capacity is known exactly;
//  2. the next QueueCap TrySubmits fill the queue and must succeed;
//  3. the following targetDrops TrySubmits must shed with ErrQueueFull —
//     scored but never applied;
//  4. the gate opens, the backlog drains, and the remaining batches flow
//     through blocking Submits.
//
// Because drops are gated on channels, not timing, the drop pattern, all
// surviving scores and the final digest are a pure function of (seed,
// QueueCap): the harness runs the protocol twice and compares bitwise.
func runSaturated(tr *Trace, o RunOptions) (*runOutcome, error) {
	m, err := newModel(tr, o)
	if err != nil {
		return nil, err
	}
	stream := tr.Events
	batches := splitBatches(stream, o.BatchSize)
	if len(batches) < o.QueueCap+3 {
		return nil, fmt.Errorf("scenario: saturation needs ≥ %d batches, have %d (raise Events or lower BatchSize)", o.QueueCap+3, len(batches))
	}
	targetDrops := (len(batches) - 1 - o.QueueCap) / 3
	if targetDrops < 1 {
		targetDrops = 1
	}

	gate := make(chan struct{})
	picked := make(chan struct{}, 1)
	var once sync.Once
	pipe := async.New(m,
		async.WithQueueCap(o.QueueCap),
		async.WithBeforeApply(func([]tgraph.Event) {
			once.Do(func() { picked <- struct{}{} })
			<-gate
		}))

	out := &runOutcome{model: m, submitted: len(stream), dropped: make([]bool, len(batches))}
	base := m.DB().G.NumEvents()
	ctx := context.Background()
	released := false
	drops := 0
	for i, b := range batches {
		ensureBatch(pipe.EnsureNodes, b)
		var scores []float32
		var lat time.Duration
		if released {
			// Post-release, sequence (infer, apply) like the direct path:
			// without the drain, the next batch's scoring would race the
			// previous batch's apply and the replay comparison would observe
			// scheduler timing, not the protocol.
			scores, lat, err = pipe.Submit(ctx, b)
			if err == nil {
				err = pipe.Drain(ctx)
			}
		} else {
			scores, lat, err = pipe.TrySubmit(b)
		}
		switch {
		case errors.Is(err, async.ErrQueueFull):
			out.dropped[i] = true
			drops++
		case err != nil:
			return nil, fmt.Errorf("scenario: saturation submit %d: %w", i, err)
		}
		out.hist.Add(lat)
		out.scores = append(out.scores, scores)
		if i == 0 {
			// The worker holds batch 0 parked on the gate; the queue's free
			// capacity is now exactly QueueCap, deterministically.
			<-picked
		}
		if !released && drops >= targetDrops {
			close(gate)
			released = true
			if err := pipe.Drain(ctx); err != nil {
				return nil, fmt.Errorf("scenario: saturation drain: %w", err)
			}
		}
	}
	if !released {
		close(gate)
	}
	if err := pipe.Drain(ctx); err != nil {
		return nil, fmt.Errorf("scenario: saturation drain: %w", err)
	}
	out.maxDepth = pipe.Stats().MaxQueueDepth
	if err := pipe.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("scenario: saturation shutdown: %w", err)
	}
	out.applied = m.DB().G.NumEvents() - base
	out.digest = m.RuntimeDigest()
	return out, nil
}

// runCheckpointed streams the first half directly, snapshots mid-stream,
// finishes the stream, then restores and replays the tail. It returns both
// tail outcomes plus the tail batches it compared over (so the caller maps
// violations to event indices of the same stream slicing); the invariant
// layer asserts the two tails are bitwise identical —
// SnapshotRuntime/RestoreRuntime under load must be a perfect rewind.
func runCheckpointed(tr *Trace, o RunOptions, trainFrac float64) (first, replay *runOutcome, tail [][]tgraph.Event, restoreOK bool, err error) {
	m, merr := newModel(tr, o)
	if merr != nil {
		return nil, nil, nil, false, merr
	}
	stream := prepModel(m, tr, o, trainFrac)
	batches := splitBatches(stream, o.BatchSize)
	half := len(batches) / 2
	runTail := func(tail [][]tgraph.Event) *runOutcome {
		out := &runOutcome{model: m, dropped: make([]bool, len(tail))}
		base := m.DB().G.NumEvents()
		var p core.Pending
		for _, b := range tail {
			ensureBatch(m.EnsureNodes, b)
			out.scores = append(out.scores, append([]float32(nil), m.Score(b, &p)...))
			m.ApplyPending(&p)
			out.submitted += len(b)
		}
		out.applied = m.DB().G.NumEvents() - base
		out.digest = m.RuntimeDigest()
		return out
	}
	runTail(batches[:half]) // first half: establish mid-stream state
	snap := m.SnapshotRuntime()
	digestAtSnap := m.RuntimeDigest()

	tail = batches[half:]
	first = runTail(tail)
	m.RestoreRuntime(snap)
	restoreOK = m.RuntimeDigest() == digestAtSnap
	replay = runTail(tail)
	return first, replay, tail, restoreOK, nil
}
