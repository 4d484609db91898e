package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"apan/internal/tgraph"
)

func mkBatch(base int, n int) []tgraph.Event {
	evs := make([]tgraph.Event, n)
	for i := range evs {
		evs[i] = tgraph.Event{
			Src:  tgraph.NodeID(base + i),
			Dst:  tgraph.NodeID(base + i + 1),
			Time: float64(base + i),
			Feat: []float32{float32(base), float32(i)},
		}
	}
	return evs
}

// TestAppendReplayAcrossReopen: a log written, closed and reopened replays
// every batch with original boundaries and contiguous indices.
func TestAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	want := writeTestLog(t, dir, 3, 8, 6)

	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NextIndex() != 48 {
		t.Fatalf("next index %d, want 48", l.NextIndex())
	}
	idx := uint64(0)
	got := 0
	if err := l.ReplayRecords(0, func(rec Record) error {
		first, events := rec.First, rec.Events
		if first != idx {
			return fmt.Errorf("record at %d, want %d", first, idx)
		}
		if !eventsBitEqual(events, want[got]) {
			return fmt.Errorf("record %d content mismatch", got)
		}
		idx = first + uint64(len(events))
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("replayed %d records, want %d", got, len(want))
	}
}

// TestReplayFromWatermark: records wholly below the watermark are skipped;
// the first delivered one starts exactly at it.
func TestReplayFromWatermark(t *testing.T) {
	dir := t.TempDir()
	writeTestLog(t, dir, 7, 5, 4) // records at 0,4,8,12,16
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var firsts []uint64
	if err := l.ReplayRecords(8, func(rec Record) error {
		firsts = append(firsts, rec.First)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(firsts) != 3 || firsts[0] != 8 {
		t.Fatalf("replayed %v, want [8 12 16]", firsts)
	}
	// A watermark inside a record is a protocol violation, not a skip.
	if err := l.ReplayRecords(6, func(Record) error { return nil }); err == nil {
		t.Fatal("watermark inside a record should fail")
	}
	// A watermark past the end replays nothing.
	if err := l.ReplayRecords(20, func(Record) error {
		return fmt.Errorf("unexpected record")
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitConcurrent: many appenders, every commit acknowledged,
// replay returns every event exactly once in index order.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 25
	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				n := rng.Intn(5) + 1
				c := begin(l, mkBatch(w*1000+i, n))
				if err := c.Wait(); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				mu.Lock()
				total += n
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextIndex() != uint64(total) {
		t.Fatalf("durable end %d, want %d", l2.NextIndex(), total)
	}
	idx := uint64(0)
	if err := l2.ReplayRecords(0, func(rec Record) error {
		first, events := rec.First, rec.Events
		if first != idx {
			return fmt.Errorf("record at %d, want %d", first, idx)
		}
		idx += uint64(len(events))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := l2.Stats()
	if st.AppendedEvents != 0 { // fresh handle: counters are per-process
		t.Fatalf("fresh log reports %d appended events", st.AppendedEvents)
	}
}

// TestSegmentRotationAndTruncate: a tiny segment budget forces rotation;
// TruncateBefore drops exactly the segments behind the watermark and
// replay from the watermark still works.
func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := begin(l, mkBatch(i*10, 3)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}

	watermark := uint64(45) // mid-log checkpoint
	removed, err := l.TruncateBefore(watermark)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("expected at least one segment removed")
	}
	if first := l.Stats().FirstIndex; first > watermark {
		t.Fatalf("first durable index %d is past the watermark %d", first, watermark)
	}
	idx := watermark
	if err := l.ReplayRecords(watermark, func(rec Record) error {
		first, events := rec.First, rec.Events
		if first != idx {
			return fmt.Errorf("record at %d, want %d", first, idx)
		}
		idx += uint64(len(events))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if idx != 90 {
		t.Fatalf("replay ended at %d, want 90", idx)
	}
	// Everything before the surviving segments is gone: replaying from 0
	// must refuse (gap), not silently start late.
	if err := l.ReplayRecords(0, func(Record) error { return nil }); err == nil {
		t.Fatal("replay below the truncation point should fail")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the chain with a truncated head is still valid.
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if l2.NextIndex() != 90 {
		t.Fatalf("reopened end %d, want 90", l2.NextIndex())
	}
	l2.Close()
}

// TestAlignToWaitsOutBackgroundSync: under SyncInterval the ticker's Sync
// holds the flush leadership with an empty buffer for the length of an
// fsync. AlignTo used to report that as "appends in flight", so AttachWAL
// after a clean recovery failed whenever it met a tick. It must wait instead.
func TestAlignToWaitsOutBackgroundSync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := begin(l, mkBatch(0, 4)).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Deterministic: park the first background fsync, call AlignTo while it
	// is parked, and only then let it finish.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	l, err = Open(Options{Dir: dir, Policy: SyncInterval, SyncEvery: time.Millisecond, Inject: &FaultInjector{
		BeforeSync: func(string) error {
			once.Do(func() {
				close(entered)
				<-release
			})
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	aligned := make(chan error, 1)
	go func() { aligned <- l.AlignTo(l.NextIndex()) }()
	select {
	case err := <-aligned:
		t.Fatalf("AlignTo returned (%v) while a sync was in progress; it must wait for it", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-aligned; err != nil {
		t.Fatalf("AlignTo after the background sync finished: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// And as recovery does it: open, align, close, over and over against a
	// 1 ms ticker doing real fsyncs.
	for i := 0; i < 40; i++ {
		l, err := Open(Options{Dir: dir, Policy: SyncInterval, SyncEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		for stop := time.Now().Add(2 * time.Millisecond); time.Now().Before(stop); {
			if err := l.AlignTo(l.NextIndex()); err != nil {
				t.Fatalf("open %d: %v", i, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAlignToGap: a checkpoint ahead of the durable log leaves a legal gap
// that replay-from-watermark never reads; replaying from before it fails,
// naming the cursor it stopped at, and a follower delivers [0,4) and never
// crosses the hole — whether the gap sits inside a segment or, with
// 64-byte segments, where the log rotated. Inside a segment the follower
// sees the record past its cursor and errors; at a boundary it cannot tell
// a gap from a segment still being shipped, so it parks.
func TestAlignToGap(t *testing.T) {
	for _, segBytes := range []int64{0, 64} {
		t.Run(fmt.Sprintf("segment_bytes_%d", segBytes), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			if err := begin(l, mkBatch(0, 4)).Wait(); err != nil {
				t.Fatal(err)
			}
			// Checkpoint at watermark 10 while only 4 events are durable.
			if err := l.AlignTo(10); err != nil {
				t.Fatal(err)
			}
			if err := begin(l, mkBatch(50, 3)).Wait(); err != nil {
				t.Fatal(err)
			}
			if err := l.AlignTo(5); err == nil {
				t.Fatal("AlignTo behind the log should fail")
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			boundary := len(segs) == 2 && segs[1].first == 10
			if boundary != (segBytes == 64) {
				t.Fatalf("%d segments at SegmentBytes %d", len(segs), segBytes)
			}

			l2, err := Open(Options{Dir: dir, SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if l2.NextIndex() != 13 {
				t.Fatalf("end %d, want 13", l2.NextIndex())
			}
			var firsts []uint64
			collect := func(rec Record) error {
				firsts = append(firsts, rec.First)
				return nil
			}
			if err := l2.ReplayRecords(10, collect); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(firsts, []uint64{10}) {
				t.Fatalf("replayed %v, want [10]", firsts)
			}
			if err := l2.ReplayRecords(4, func(Record) error { return nil }); err == nil {
				t.Fatal("replay across an aligned gap should fail")
			}
			firsts = firsts[:0]
			err = l2.ReplayRecords(0, collect)
			if err == nil || !strings.Contains(err.Error(), "cursor 4") || !slices.Equal(firsts, []uint64{0}) {
				t.Fatalf("replay from 0 across the gap delivered %v with err=%v, want [0] and an error naming cursor 4", firsts, err)
			}

			f, err := OpenFollower(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			for poll, want := range []int{1, 0} {
				n, err := f.Poll(func(Record) error { return nil })
				if n != want || f.Cursor() != 4 || (err == nil) != boundary {
					t.Fatalf("poll %d delivered %d records to cursor %d with err=%v; want %d, cursor 4, an error iff the gap is inside a segment", poll, n, f.Cursor(), err, want)
				}
			}
		})
	}
}

// TestAbandonLosesOnlyUnflushed: Abandon (simulated crash) preserves every
// acknowledged group; an un-waited Begin may or may not survive, but never
// partially.
func TestAbandonLosesOnlyUnflushed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := begin(l, mkBatch(i, 2)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	begin(l, mkBatch(100, 2)) // buffered, never waited: lost with the "crash"
	l.Abandon()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextIndex() != 10 {
		t.Fatalf("durable end %d, want 10 (acknowledged events only)", l2.NextIndex())
	}
}

// TestSyncIntervalPolicy: commits are acknowledged before fsync, the
// ticker syncs in the background, and Close makes everything durable.
func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncInterval, SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := begin(l, mkBatch(i, 3)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if l.Stats().Syncs == 0 {
		t.Fatal("background ticker never fsynced")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextIndex() != 30 {
		t.Fatalf("durable end %d, want 30", l2.NextIndex())
	}
}

// TestEmptyBatchAndEmptyLog: degenerate inputs take the cheap paths.
func TestEmptyBatchAndEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if c := begin(l, nil); c.log != nil {
		t.Fatal("empty batch should return the zero Commit")
	}
	if err := (Commit{}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.ReplayRecords(0, func(Record) error {
		return fmt.Errorf("unexpected record in empty log")
	}); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 0 || st.NextIndex != 0 {
		t.Fatalf("empty log stats: %+v", st)
	}
}

// TestBeginSteadyStateAllocs: after warm-up, BeginRecord+Wait on a SyncNone log
// does not allocate — the encode buffer and its double are reused, and the
// Commit ticket is by-value.
func TestBeginSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batch := mkBatch(0, 16)
	rows := testRows(batch)
	for i := 0; i < 20; i++ { // warm both buffers
		if err := l.BeginRecord(batch, rows, testDim).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.BeginRecord(batch, rows, testDim).Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("BeginRecord+Wait allocates %.1f objects per append at steady state, want 0", allocs)
	}
}

// TestVersion1SegmentRefused: a segment written before records carried
// embeddings fails Open and a follower's Poll with an error that says what
// the operator does about it; there is no fallback that would replay it.
func TestVersion1SegmentRefused(t *testing.T) {
	dir := t.TempDir()
	var hdr [segHeaderSize]byte
	copy(hdr[:4], segMagic)
	le.PutUint32(hdr[4:], 1)
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr := Open(Options{Dir: dir})
	f, err := OpenFollower(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, pollErr := f.Poll(func(Record) error { return nil })
	for name, err := range map[string]error{"Open": openErr, "Poll": pollErr} {
		if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "empty log directory") {
			t.Errorf("%s on a version 1 segment: %v, want a refusal naming the upgrade", name, err)
		}
	}
}

// TestDeprecatedEventOnlyShims: Begin and Replay, which the benchmark's
// ladder still calls, are BeginRecord and ReplayRecords with the rows left
// out — the same format, no second one.
func TestDeprecatedEventOnlyShims(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a, b := mkBatch(0, 3), mkBatch(3, 2)
	if err := l.Begin(a).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := begin(l, b).Wait(); err != nil {
		t.Fatal(err)
	}
	var viaShim [][]tgraph.Event
	if err := l.Replay(0, func(first uint64, events []tgraph.Event) error {
		viaShim = append(viaShim, events)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(viaShim) != 2 || !eventsBitEqual(viaShim[0], a) || !eventsBitEqual(viaShim[1], b) {
		t.Fatalf("Replay delivered %d records, want the two logged", len(viaShim))
	}
	var rowLens []int
	if err := l.ReplayRecords(0, func(rec Record) error {
		rowLens = append(rowLens, len(rec.Rows))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, len(testRows(b))}; !slices.Equal(rowLens, want) {
		t.Fatalf("row lengths %v, want %v", rowLens, want)
	}
}

// TestSyncDir: the directory fsync a checkpoint's rename and a new segment
// rely on succeeds on a directory and reports an error for one that is not
// there (what a crash does to an un-synced entry cannot be simulated here).
func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := SyncDir(dir); err != nil {
		t.Fatalf("SyncDir(%s): %v", dir, err)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncDir of a missing directory returned nil")
	}
}
