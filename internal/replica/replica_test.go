package replica

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

func testConfig(numNodes int) core.Config {
	return core.Config{
		NumNodes: numNodes, EdgeDim: 16,
		Slots: 4, Neighbors: 4, Hops: 2, Heads: 2, Hidden: 32,
		BatchSize: 20, LR: 0.001, Seed: 1,
	}
}

func testEvents(t *testing.T) []tgraph.Event {
	t.Helper()
	d := dataset.Wikipedia(dataset.Config{Scale: 0.01, Seed: 7, NoDrift: true})
	for i := range d.Events {
		d.Events[i].Feat = d.Events[i].Feat[:16]
	}
	return d.Events
}

func newModel(t *testing.T, numNodes int) *core.Model {
	t.Helper()
	m, err := core.New(testConfig(numNodes))
	if err != nil {
		t.Fatal(err)
	}
	m.ResetRuntime()
	return m
}

// leaderAndShippedDir builds a leader with an attached WAL, applies the
// given batches, then crashes it (DetachWAL + Abandon) and returns the log
// directory — which doubles as the "shipped" directory, since a DirDest
// ship produces byte-identical files.
func applyBatches(t *testing.T, m *core.Model, events []tgraph.Event, batch int) {
	t.Helper()
	var p core.Pending
	for i := 0; i < len(events); i += batch {
		end := i + batch
		if end > len(events) {
			end = len(events)
		}
		m.Score(events[i:end], &p)
		m.ApplyPending(&p)
	}
}

func TestFollowerReplaysAndPromotes(t *testing.T) {
	events := testEvents(t)
	n := 400
	if len(events) < n {
		t.Fatalf("dataset too small: %d", len(events))
	}
	events = events[:n]
	numNodes := 0
	for _, e := range events {
		if int(e.Src) >= numNodes {
			numNodes = int(e.Src) + 1
		}
		if int(e.Dst) >= numNodes {
			numNodes = int(e.Dst) + 1
		}
	}

	dirA := t.TempDir()
	walOpts := wal.Options{Dir: dirA, Policy: wal.SyncGroup, SegmentBytes: 4096}

	leader := newModel(t, numNodes)
	log, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, leader, events, 25)
	wantDigest := leader.RuntimeDigest()
	leader.DetachWAL().Abandon()

	// Ship the whole log (tail mode: the live segment too) to the follower.
	dirB := t.TempDir()
	shipper := wal.NewShipper(dirA, wal.DirDest{Dir: dirB}, wal.ShipOptions{Tail: true})
	if _, err := shipper.ShipNow(); err != nil {
		t.Fatal(err)
	}

	follower := newModel(t, numNodes)
	rep, err := NewFollower(follower, dirB, Options{WAL: walOpts})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Role(); got != "follower" {
		t.Fatalf("role = %q, want follower", got)
	}
	applied, err := rep.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if applied != n {
		t.Fatalf("replayed %d events, want %d", applied, n)
	}
	if got := follower.RuntimeDigest(); got != wantDigest {
		t.Fatalf("follower digest %x != leader %x", got, wantDigest)
	}

	// Lag accounting: heartbeat says the leader logged 30 more events.
	if rep.LagEvents() != 0 {
		t.Fatalf("lag before any heartbeat = %d, want 0", rep.LagEvents())
	}
	rep.ObserveLeaderIndex(uint64(n + 30))
	if got := rep.LagEvents(); got != 30 {
		t.Fatalf("lag = %d, want 30", got)
	}

	// Promote: follower becomes a writable leader at the same watermark.
	if err := rep.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := rep.Role(); got != "leader" {
		t.Fatalf("role after promote = %q, want leader", got)
	}
	if got := follower.RuntimeDigest(); got != wantDigest {
		t.Fatalf("digest changed across promotion: %x != %x", got, wantDigest)
	}
	if rep.Cursor() != uint64(n) {
		t.Fatalf("cursor after promote = %d, want %d", rep.Cursor(), n)
	}

	// Fencing: second promote refuses, polling refuses.
	if err := rep.Promote(); !errors.Is(err, ErrAlreadyPromoted) {
		t.Fatalf("second Promote = %v, want ErrAlreadyPromoted", err)
	}
	if _, err := rep.PollOnce(); !errors.Is(err, ErrPromoted) {
		t.Fatalf("PollOnce after promote = %v, want ErrPromoted", err)
	}

	// The promoted leader logs new applies durably.
	extra := testEvents(t)[n : n+20]
	applyBatches(t, follower, extra, 20)
	endDigest := follower.RuntimeDigest()
	follower.DetachWAL().Abandon()

	recovered := newModel(t, numNodes)
	rlog, err := wal.Open(wal.Options{Dir: dirB, Policy: wal.SyncGroup, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer rlog.Close()
	if _, err := recovered.RecoverWAL(rlog); err != nil {
		t.Fatal(err)
	}
	if got := recovered.RuntimeDigest(); got != endDigest {
		t.Fatalf("recovered digest %x != promoted leader %x", got, endDigest)
	}
}

// TestFollowerIncrementalPolls: records shipped in pieces are applied
// exactly once, in order, across many polls — including a torn tail that
// parks and later completes.
func TestFollowerIncrementalPolls(t *testing.T) {
	events := testEvents(t)[:200]
	numNodes := 0
	for _, e := range events {
		if int(e.Src) >= numNodes {
			numNodes = int(e.Src) + 1
		}
		if int(e.Dst) >= numNodes {
			numNodes = int(e.Dst) + 1
		}
	}

	dirA := t.TempDir()
	walOpts := wal.Options{Dir: dirA, Policy: wal.SyncGroup, SegmentBytes: 2048}
	leader := newModel(t, numNodes)
	log, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(log); err != nil {
		t.Fatal(err)
	}

	dirB := t.TempDir()
	shipper := wal.NewShipper(dirA, wal.DirDest{Dir: dirB}, wal.ShipOptions{Tail: true})
	follower := newModel(t, numNodes)
	rep, err := NewFollower(follower, dirB, Options{WAL: walOpts})
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for i := 0; i < len(events); i += 20 {
		applyBatches(t, leader, events[i:i+20], 20)
		if _, err := shipper.ShipNow(); err != nil {
			t.Fatal(err)
		}
		applied, err := rep.PollOnce()
		if err != nil {
			t.Fatal(err)
		}
		total += applied
	}
	if total != len(events) {
		t.Fatalf("applied %d events across polls, want %d", total, len(events))
	}
	if got, want := follower.RuntimeDigest(), leader.RuntimeDigest(); got != want {
		t.Fatalf("follower digest %x != leader %x", got, want)
	}
	leader.DetachWAL().Close()
}

// dirSnapshot maps every file name in dir to its content bytes.
func dirSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = string(b)
	}
	return snap
}

// TestShipDestFencedByPromotion: chunks routed through Replica.ShipDest
// land on disk while following, and are refused — directory bytes
// untouched — the moment the replica is promoted. This is the on-disk
// fence: a still-alive ex-leader whose stream keeps running cannot
// overwrite WAL frames the promoted leader appends at the same offsets.
func TestShipDestFencedByPromotion(t *testing.T) {
	events := testEvents(t)[:80]
	numNodes := 0
	for _, e := range events {
		if int(e.Src) >= numNodes {
			numNodes = int(e.Src) + 1
		}
		if int(e.Dst) >= numNodes {
			numNodes = int(e.Dst) + 1
		}
	}

	dirA := t.TempDir()
	walOpts := wal.Options{Dir: dirA, Policy: wal.SyncGroup, SegmentBytes: 2048}
	leader := newModel(t, numNodes)
	llog, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(llog); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, leader, events[:60], 20)

	dirB := t.TempDir()
	follower := newModel(t, numNodes)
	rep, err := NewFollower(follower, dirB, Options{WAL: walOpts})
	if err != nil {
		t.Fatal(err)
	}

	// The ship stream writes through the fenced dest, not a raw DirDest.
	shipper := wal.NewShipper(dirA, rep.ShipDest(), wal.ShipOptions{Tail: true})
	if _, err := shipper.ShipNow(); err != nil {
		t.Fatal(err)
	}
	if applied, err := rep.PollOnce(); err != nil || applied != 60 {
		t.Fatalf("PollOnce = (%d, %v), want (60, nil)", applied, err)
	}

	var hookRole string
	var hookLog *wal.Log
	hookRan := false
	rep.SetFenceHook(func() {
		// The hook fires before the directory is reopened for appends:
		// still mid-promotion, no log attached yet.
		hookRan, hookRole, hookLog = true, rep.Role(), rep.Log()
	})
	if err := rep.Promote(); err != nil {
		t.Fatal(err)
	}
	if !hookRan {
		t.Fatal("fence hook did not run during Promote")
	}
	if hookRole != "follower" || hookLog != nil {
		t.Fatalf("fence hook observed role %q log %v — ran after promotion completed", hookRole, hookLog)
	}

	// The ex-leader is still alive: it appends and ships more. Every
	// chunk must be refused and not a byte of dirB may change.
	applyBatches(t, leader, events[60:80], 20)
	before := dirSnapshot(t, dirB)
	if _, err := shipper.ShipNow(); !errors.Is(err, ErrPromoted) {
		t.Fatalf("post-promotion ship error = %v, want ErrPromoted", err)
	}
	after := dirSnapshot(t, dirB)
	if len(before) != len(after) {
		t.Fatalf("shipped file count changed across fenced ship: %d -> %d", len(before), len(after))
	}
	for name, b := range before {
		if after[name] != b {
			t.Fatalf("fenced ship mutated %s (%d -> %d bytes)", name, len(b), len(after[name]))
		}
	}
	leader.DetachWAL().Abandon()

	// The promoted leader's log is intact: its own appends recover.
	extra := testEvents(t)[60:70]
	applyBatches(t, follower, extra, 10)
	endDigest := follower.RuntimeDigest()
	follower.DetachWAL().Abandon()
	recovered := newModel(t, numNodes)
	rlog, err := wal.Open(wal.Options{Dir: dirB, Policy: wal.SyncGroup, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer rlog.Close()
	if _, err := recovered.RecoverWAL(rlog); err != nil {
		t.Fatal(err)
	}
	if got := recovered.RuntimeDigest(); got != endDigest {
		t.Fatalf("recovered digest %x != promoted leader %x", got, endDigest)
	}
}

// TestFailedPromotionLiftsFence: a Promote that cannot catch up (here: the
// shipped log starts past the follower's watermark) leaves a functioning
// follower — chunk writes resume, the role stays "follower". Safe because
// the fence hook severed the connection, and a reconnecting leader
// re-ships every segment from byte zero.
func TestFailedPromotionLiftsFence(t *testing.T) {
	events := testEvents(t)[:60]
	numNodes := 0
	for _, e := range events {
		if int(e.Src) >= numNodes {
			numNodes = int(e.Src) + 1
		}
		if int(e.Dst) >= numNodes {
			numNodes = int(e.Dst) + 1
		}
	}

	dirA := t.TempDir()
	walOpts := wal.Options{Dir: dirA, Policy: wal.SyncGroup, SegmentBytes: 512}
	leader := newModel(t, numNodes)
	llog, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(llog); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, leader, events, 4)
	// Drop the log's head so the shipped copy starts past watermark 0.
	if removed, err := llog.TruncateBefore(20); err != nil || removed == 0 {
		t.Fatalf("TruncateBefore = (%d, %v), want segments dropped", removed, err)
	}
	leader.DetachWAL().Abandon()

	dirB := t.TempDir()
	follower := newModel(t, numNodes) // fresh: watermark 0, cannot reach index 20
	rep, err := NewFollower(follower, dirB, Options{WAL: walOpts})
	if err != nil {
		t.Fatal(err)
	}
	shipper := wal.NewShipper(dirA, rep.ShipDest(), wal.ShipOptions{Tail: true})
	if _, err := shipper.ShipNow(); err != nil {
		t.Fatal(err)
	}

	if err := rep.Promote(); err == nil {
		t.Fatal("Promote succeeded across a log gap")
	}
	if got := rep.Role(); got != "follower" {
		t.Fatalf("role after failed promotion = %q, want follower", got)
	}
	// The fence is lifted: a (re)connecting leader's re-ship lands again.
	before := dirSnapshot(t, dirB)
	reship := wal.NewShipper(dirA, rep.ShipDest(), wal.ShipOptions{Tail: true})
	if _, err := reship.ShipNow(); err != nil {
		t.Fatalf("re-ship after failed promotion: %v", err)
	}
	if after := dirSnapshot(t, dirB); len(after) != len(before) {
		t.Fatalf("re-ship after failed promotion wrote nothing: %d files before, %d after", len(before), len(after))
	}
}

// TestPromotionFenceRace: a ship stream writing chunks full-tilt while
// Promote runs never lands a byte after the fence, and role/cursor/lag
// reads stay lock-free throughout (meaningful under -race).
func TestPromotionFenceRace(t *testing.T) {
	events := testEvents(t)[:60]
	numNodes := 0
	for _, e := range events {
		if int(e.Src) >= numNodes {
			numNodes = int(e.Src) + 1
		}
		if int(e.Dst) >= numNodes {
			numNodes = int(e.Dst) + 1
		}
	}

	dirA := t.TempDir()
	walOpts := wal.Options{Dir: dirA, Policy: wal.SyncGroup, SegmentBytes: 4096}
	leader := newModel(t, numNodes)
	llog, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(llog); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, leader, events, 20)
	leader.DetachWAL().Abandon()

	dirB := t.TempDir()
	follower := newModel(t, numNodes)
	rep, err := NewFollower(follower, dirB, Options{WAL: walOpts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.NewShipper(dirA, rep.ShipDest(), wal.ShipOptions{Tail: true}).ShipNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.PollOnce(); err != nil {
		t.Fatal(err)
	}

	// One idempotent chunk the "stream" re-writes over and over: the
	// first segment's own bytes at offset 0.
	segs, err := os.ReadDir(dirB)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no shipped segments: %v", err)
	}
	segName := segs[0].Name()
	segBytes, err := os.ReadFile(filepath.Join(dirB, segName))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		dest := rep.ShipDest()
		for {
			if err := dest.WriteChunk(segName, 0, segBytes); err != nil {
				writerDone <- err
				return
			}
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
		}
	}()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			_ = rep.Role()
			_ = rep.Cursor()
			_ = rep.LagEvents()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	if err := rep.Promote(); err != nil {
		t.Fatal(err)
	}
	// The writer must die on ErrPromoted by itself — the fence, not the
	// stop channel, is what ends the stream.
	if err := <-writerDone; !errors.Is(err, ErrPromoted) {
		t.Fatalf("racing writer ended with %v, want ErrPromoted", err)
	}
	close(stop)
	<-readerDone
	if got := rep.Role(); got != "leader" {
		t.Fatalf("role = %q after promotion", got)
	}
	rep.Log().Abandon()
	follower.DetachWAL()
}

func TestNewFollowerRejectsAttachedWAL(t *testing.T) {
	dir := t.TempDir()
	m := newModel(t, 8)
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := m.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFollower(m, dir, Options{}); err == nil {
		t.Fatal("NewFollower accepted a model with a WAL attached")
	}
}

// TestFollowerAcrossLeaderPublish: the leader's online trainer publishes new
// parameters mid-stream; the follower never hears of it — it was seeded with
// the initial parameters and receives only the log. It still ends bitwise
// where the leader is, because a record carries what the leader computed and
// replay recomputes nothing.
func TestFollowerAcrossLeaderPublish(t *testing.T) {
	events := testEvents(t)[:400]
	numNodes := 0
	for _, e := range events {
		numNodes = max(numNodes, int(e.Src)+1, int(e.Dst)+1)
	}
	dirA, dirB := t.TempDir(), t.TempDir()

	leader := newModel(t, numNodes)
	log, err := wal.Open(wal.Options{Dir: dirA, Policy: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, leader, events[:200], 25)
	params := leader.Params()
	for _, p := range params {
		for j := range p.W.Data {
			p.W.Data[j] += 0.01
		}
	}
	if _, err := leader.SwapParams(params); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, leader, events[200:], 25)
	want := leader.RuntimeDigest()
	if err := leader.DetachWAL().Close(); err != nil {
		t.Fatal(err)
	}

	stale := newModel(t, numNodes)
	applyBatches(t, stale, events, 25)
	if stale.RuntimeDigest() == want {
		t.Fatal("the published parameters changed nothing; the test proves nothing")
	}

	if _, err := wal.NewShipper(dirA, wal.DirDest{Dir: dirB}, wal.ShipOptions{Tail: true}).ShipNow(); err != nil {
		t.Fatal(err)
	}
	follower := newModel(t, numNodes)
	rep, err := NewFollower(follower, dirB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := rep.PollOnce(); err != nil || applied != len(events) {
		t.Fatalf("PollOnce applied %d of %d events, err %v", applied, len(events), err)
	}
	if got := follower.RuntimeDigest(); got != want {
		t.Fatalf("follower digest %016x, the leader that published mid-stream has %016x", got, want)
	}
}
