package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"apan/internal/tgraph"
	"apan/internal/wal"
)

func openTestWAL(t *testing.T, dir string, policy wal.Policy) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestWALCheckpointRecoverDigest is the core-level crash-recovery contract:
// checkpoint + replay-to-watermark reconstructs the exact pre-crash runtime.
// A model streams with a WAL attached, checkpoints mid-stream, streams on,
// then "crashes" (Abandon: the log is dropped without a final flush, keeping
// only what commit acknowledgement already made durable). A fresh process
// loads the checkpoint, replays the log past the watermark, and must land on
// a bitwise-identical RuntimeDigest — then keep serving, ending bitwise
// equal to a process that never crashed at all.
func TestWALCheckpointRecoverDigest(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "ckpt")

	batches := make([][]tgraph.Event, 20)
	for i := range batches {
		batches[i] = concBatch(int32(3*i), 8, float64(100*i))
	}

	m := concModel(t)
	if err := m.AttachWAL(openTestWAL(t, walDir, wal.SyncGroup)); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:8] {
		applyBatch(m, b)
	}
	wm, err := m.Checkpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if wm != uint64(m.GraphEvents()) {
		t.Fatalf("checkpoint watermark %d, graph has %d events", wm, m.GraphEvents())
	}
	for _, b := range batches[8:15] {
		applyBatch(m, b)
	}
	crashDigest := m.RuntimeDigest()
	crashEvents := m.GraphEvents()
	m.DetachWAL().Abandon() // crash: no Close, no final flush

	// Recovery: fresh process, same binary/config.
	m2 := concModel(t)
	if err := m2.LoadCheckpointFile(ckpt); err != nil {
		t.Fatal(err)
	}
	if got := m2.GraphEvents(); uint64(got) != wm {
		t.Fatalf("checkpoint restored %d events, watermark says %d", got, wm)
	}
	log2 := openTestWAL(t, walDir, wal.SyncGroup)
	replayed, err := m2.RecoverWAL(log2)
	if err != nil {
		t.Fatal(err)
	}
	if want := crashEvents - int(wm); replayed != want {
		t.Fatalf("replayed %d events, want %d", replayed, want)
	}
	if got := m2.RuntimeDigest(); got != crashDigest {
		t.Fatalf("recovered digest %016x != pre-crash digest %016x", got, crashDigest)
	}

	// The recovered replica keeps serving where the crashed one left off…
	if err := m2.AttachWAL(log2); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[15:] {
		applyBatch(m2, b)
	}
	if err := m2.DetachWAL().Close(); err != nil {
		t.Fatal(err)
	}

	// …and ends bitwise equal to an uninterrupted run of the whole stream.
	ref := concModel(t)
	for _, b := range batches {
		applyBatch(ref, b)
	}
	if got, want := m2.RuntimeDigest(), ref.RuntimeDigest(); got != want {
		t.Fatalf("post-recovery stream digest %016x != uninterrupted digest %016x", got, want)
	}
}

// TestRecoverWALRejectsAttached: replaying with a WAL attached would re-log
// every replayed batch; the API must refuse.
func TestRecoverWALRejectsAttached(t *testing.T) {
	m := concModel(t)
	l := openTestWAL(t, t.TempDir(), wal.SyncNone)
	if err := m.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RecoverWAL(l); err == nil {
		t.Fatal("RecoverWAL with a WAL attached must fail")
	}
	if err := m.DetachWAL().Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAttachWALTwiceFails: a second attach must be rejected, and detach must
// return the original log.
func TestAttachWALTwiceFails(t *testing.T) {
	m := concModel(t)
	l := openTestWAL(t, t.TempDir(), wal.SyncNone)
	if err := m.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachWAL(l); err == nil {
		t.Fatal("double attach must fail")
	}
	if got := m.DetachWAL(); got != l {
		t.Fatalf("DetachWAL returned %p, want %p", got, l)
	}
	if m.WAL() != nil {
		t.Fatal("WAL still attached after detach")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInferBatchProceedsDuringCut proves the non-blocking-snapshot claim
// structurally: a checkpoint cut holds exactly the writer lock, and the
// synchronous link must score right through it. (Before the durability
// work, SnapshotRuntime took the store lock exclusively and this would
// deadlock-by-timeout.)
func TestInferBatchProceedsDuringCut(t *testing.T) {
	m := concModel(t)
	m.EvalStream(concBatch(0, 32, 0), nil)
	batch := concBatch(5, 8, 50)

	// Hold the full lock set of runtimeCut.
	m.applyMu.Lock()

	done := make(chan []float32, 1)
	go func() { done <- m.Score(batch, new(Pending)) }()
	select {
	case scores := <-done:
		if len(scores) != len(batch) {
			t.Errorf("scored %d of %d events", len(scores), len(batch))
		}
	case <-time.After(10 * time.Second):
		t.Error("Score blocked behind a snapshot cut")
	}

	m.applyMu.Unlock()
}

// TestConcurrentCheckpointServing is the deadlock/race regression for the
// full durability lock order (applyMu → evictor.mu → storeMu):
// scorers, appliers, a checkpoint+truncate loop, a digest loop and dynamic
// node admission all run at once against a WAL-attached model. Run under
// -race. Afterwards the crash-free recovery path (load last checkpoint,
// replay to end) must account for every logged event.
func TestConcurrentCheckpointServing(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")

	m := concModel(t)
	l := openTestWAL(t, walDir, wal.SyncNone)
	if err := m.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	m.EvalStream(concBatch(0, 32, 0), nil)

	const rounds = 30
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		lastCk string
		lastWM uint64
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				applyBatch(m, concBatch(int32(g), 8, float64(100+i)))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.Score(concBatch(int32(8+g), 8, float64(100+i)), new(Pending))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			path := filepath.Join(dir, fmt.Sprintf("ck-%d", i))
			wm, err := m.Checkpoint(path)
			if err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
			if _, err := l.TruncateBefore(wm); err != nil {
				t.Errorf("truncate at %d: %v", wm, err)
				return
			}
			mu.Lock()
			lastCk, lastWM = path, wm
			mu.Unlock()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			m.RuntimeDigest()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 40; n <= 96; n += 8 {
			m.EnsureNodes(n)
		}
	}()
	wg.Wait()

	final := m.GraphEvents()
	if err := m.DetachWAL().Close(); err != nil {
		t.Fatal(err)
	}
	if lastCk == "" {
		t.Fatal("no checkpoint completed")
	}

	// Crash-free recovery: last checkpoint + replay to end covers the stream.
	m2 := concModel(t)
	if err := m2.LoadCheckpointFile(lastCk); err != nil {
		t.Fatal(err)
	}
	if got := uint64(m2.GraphEvents()); got != lastWM {
		t.Fatalf("checkpoint restored %d events, watermark %d", got, lastWM)
	}
	log2 := openTestWAL(t, walDir, wal.SyncNone)
	replayed, err := m2.RecoverWAL(log2)
	if err != nil {
		t.Fatal(err)
	}
	if want := final - int(lastWM); replayed != want {
		t.Fatalf("replayed %d events, want %d (final %d, watermark %d)", replayed, want, final, lastWM)
	}
	if got := m2.GraphEvents(); got != final {
		t.Fatalf("recovered graph has %d events, live run had %d", got, final)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInferBatchZeroAllocSteadyStateWAL re-runs the hot-path allocation
// guard with durability enabled: attaching a WAL must not put a single
// allocation on the synchronous link (the log is touched only at the apply
// point), and the apply path's WAL append itself is allocation-free at
// steady state (see wal's TestBeginSteadyStateAllocs).
func TestInferBatchZeroAllocSteadyStateWAL(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	ds := tinyData(1)
	cfg := tinyConfig(ds.NumNodes)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachWAL(openTestWAL(t, t.TempDir(), wal.SyncNone)); err != nil {
		t.Fatal(err)
	}
	m.EvalStream(ds.Events[:200], nil)
	batch := ds.Events[200:240]
	var p Pending
	for i := 0; i < 3; i++ {
		m.Score(batch, &p)
	}
	allocs := testing.AllocsPerRun(50, func() {
		m.Score(batch, &p)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Score allocated %.2f times per op with WAL attached, want 0", allocs)
	}
	if err := m.DetachWAL().Close(); err != nil {
		t.Fatal(err)
	}
}

// serveLogged pushes batches through the synchronous serving path — admit,
// score, apply — the way async.Pipeline.Submit does with no queue between.
func serveLogged(m *Model, batches [][]tgraph.Event) {
	for _, b := range batches {
		m.ReadmitBatch(b)
		applyBatch(m, b)
	}
}

// recoverInto loads ckpt into m and replays the log in walDir past it.
func recoverInto(t *testing.T, m *Model, ckpt, walDir string) {
	t.Helper()
	if err := m.LoadCheckpointFile(ckpt); err != nil {
		t.Fatal(err)
	}
	l := openTestWAL(t, walDir, wal.SyncGroup)
	if _, err := m.RecoverWAL(l); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverAcrossPublish: a log that spans a parameter publish recovers
// bitwise. The checkpoint holds the parameters as of its cut; the batches
// after it were scored by a set the online trainer published later, which is
// nowhere in the log — only what it computed is. Replay by inference scored
// them with the checkpoint's parameters and landed somewhere else.
func TestRecoverAcrossPublish(t *testing.T) {
	dir := t.TempDir()
	walDir, ckpt := filepath.Join(dir, "wal"), filepath.Join(dir, "ckpt")
	batches := make([][]tgraph.Event, 15)
	for i := range batches {
		batches[i] = concBatch(int32(3*i), 8, float64(100*i))
	}

	m := concModel(t)
	if err := m.AttachWAL(openTestWAL(t, walDir, wal.SyncGroup)); err != nil {
		t.Fatal(err)
	}
	serveLogged(m, batches[:8])
	if _, err := m.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		for j := range p.W.Data {
			p.W.Data[j] += 0.01
		}
	}
	m.publishOwn()
	serveLogged(m, batches[8:])
	want := m.RuntimeDigest()
	m.DetachWAL().Abandon()

	// The publish mattered: the same batches under the checkpoint's
	// parameters end somewhere else.
	old := concModel(t)
	if err := old.LoadCheckpointFile(ckpt); err != nil {
		t.Fatal(err)
	}
	serveLogged(old, batches[8:])
	if old.RuntimeDigest() == want {
		t.Fatal("the perturbed parameters changed nothing; the test proves nothing")
	}

	rec := concModel(t)
	recoverInto(t, rec, ckpt, walDir)
	if got := rec.RuntimeDigest(); got != want {
		t.Fatalf("recovered digest %016x, the leader that published mid-log had %016x", got, want)
	}
}

// TestReplayReadmitsUnderEviction: replay re-admits evicted endpoints before
// it applies a batch, as every serving submit does before it scores one —
// the evictions and LRU touches a re-admission causes are part of the
// runtime. Without that call the recovered model diverges from the live one
// as soon as one node cycles out and back.
func TestReplayReadmitsUnderEviction(t *testing.T) {
	dir := t.TempDir()
	walDir, ckpt := filepath.Join(dir, "wal"), filepath.Join(dir, "ckpt")
	ds := tinyData(2)
	cfg := tinyConfig(ds.NumNodes)
	cfg.EvictMaxNodes = 8
	var batches [][]tgraph.Event
	for lo := 0; lo < 300; lo += cfg.BatchSize {
		batches = append(batches, ds.Events[lo:lo+cfg.BatchSize])
	}

	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := live.AttachWAL(openTestWAL(t, walDir, wal.SyncGroup)); err != nil {
		t.Fatal(err)
	}
	serveLogged(live, batches)
	liveStats, _ := live.EvictionStats()
	if liveStats.Readmitted == 0 {
		t.Fatal("no node was re-admitted; the test proves nothing")
	}
	if err := live.DetachWAL().Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recoverInto(t, rec, ckpt, walDir)
	if got, want := rec.RuntimeDigest(), live.RuntimeDigest(); got != want {
		t.Fatalf("recovered digest %016x != live digest %016x after %d re-admissions", got, want, liveStats.Readmitted)
	}
	if recStats, _ := rec.EvictionStats(); recStats != liveStats {
		t.Fatalf("replay's eviction counters %+v, live %+v", recStats, liveStats)
	}
}

// TestReplayBatchRefusesForeignRows: a record is applied only if its rows
// are one EdgeDim-wide row per distinct endpoint of its events; a refusal
// leaves the model as it was, so a follower can report it and stay put.
func TestReplayBatchRefusesForeignRows(t *testing.T) {
	m := concModel(t)
	events := concBatch(0, 4, 10) // endpoints 0..4: five rows of eight
	dim := m.Cfg.EdgeDim
	before := m.RuntimeDigest()
	for name, rec := range map[string]wal.Record{
		"no rows (event-only Begin)": {Events: events},
		"one row short":              {Events: events, Rows: make([]float32, 4*dim), Dim: dim},
		"one row over":               {Events: events, Rows: make([]float32, 6*dim), Dim: dim},
		"another model's dimension":  {Events: events, Rows: make([]float32, 5*dim), Dim: dim / 2},
		"right count, wrong dim":     {Events: events, Rows: make([]float32, 5*(dim+1)), Dim: dim + 1},
	} {
		if err := m.ReplayBatch(rec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if m.RuntimeDigest() != before || m.GraphEvents() != 0 {
		t.Fatal("a refused record changed the model")
	}
	if err := m.ReplayBatch(wal.Record{Events: events, Rows: make([]float32, 5*dim), Dim: dim}); err != nil {
		t.Fatalf("a well-formed record: %v", err)
	}
	if m.GraphEvents() != len(events) {
		t.Fatalf("graph holds %d events after one replayed batch of %d", m.GraphEvents(), len(events))
	}
}

// TestReplayBatchRefusesMalformedEvents: a record whose rows fit its
// endpoints but whose events no serving apply could have logged — a
// feature vector that is not EdgeDim long, or a negative node id — is
// refused with an error before anything is touched, not applied until the
// propagator or a store panics with the model's locks held. The bad event
// comes last, so a check inside the apply span would come too late.
func TestReplayBatchRefusesMalformedEvents(t *testing.T) {
	m := concModel(t)
	dim := m.Cfg.EdgeDim
	record := func(events []tgraph.Event) wal.Record {
		return wal.Record{Events: events, Rows: make([]float32, len(planOf(events).Nodes)*dim), Dim: dim}
	}
	if err := m.ReplayBatch(record(concBatch(0, 4, 10))); err != nil {
		t.Fatal(err)
	}
	before := m.RuntimeDigest()
	for name, mutate := range map[string]func(ev *tgraph.Event){
		"features one short":   func(ev *tgraph.Event) { ev.Feat = ev.Feat[:dim-1] },
		"features one over":    func(ev *tgraph.Event) { ev.Feat = make([]float32, dim+1) },
		"no features":          func(ev *tgraph.Event) { ev.Feat = nil },
		"negative source":      func(ev *tgraph.Event) { ev.Src = -3 },
		"negative destination": func(ev *tgraph.Event) { ev.Dst = -3 },
	} {
		events := concBatch(2, 4, 20)
		mutate(&events[len(events)-1])
		if err := m.ReplayBatch(record(events)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if m.RuntimeDigest() != before {
			t.Fatalf("%s: a refused record changed the model", name)
		}
	}
}

// TestRecoverOfflinePassLog: the offline entry points (EvalStream and
// friends) log through applyRows over a Step plan that also holds the
// sampled negatives; only the endpoints' rows — the plan's leading ones — belong in
// the record, and they replay bitwise.
func TestRecoverOfflinePassLog(t *testing.T) {
	dir := t.TempDir()
	walDir, ckpt := filepath.Join(dir, "wal"), filepath.Join(dir, "ckpt")
	ds := tinyData(3)
	cfg := tinyConfig(ds.NumNodes)

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachWAL(openTestWAL(t, walDir, wal.SyncGroup)); err != nil {
		t.Fatal(err)
	}
	m.EvalStream(ds.Events[:200], nil)
	want := m.RuntimeDigest()
	if err := m.DetachWAL().Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recoverInto(t, rec, ckpt, walDir)
	if got := rec.RuntimeDigest(); got != want {
		t.Fatalf("recovered digest %016x, the offline pass ended at %016x", got, want)
	}
}
