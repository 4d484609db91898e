package wal

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"apan/internal/tgraph"
)

// TestTruncateRacingAppends: TruncateBefore running concurrently with
// appends and Syncs (the shape of a checkpoint cut finishing while the
// stream keeps flowing) must neither lose acknowledged records above the
// watermark nor break the segment chain. Run under -race in CI.
func TestTruncateRacingAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}

	const batches = 120
	var wg sync.WaitGroup
	wg.Add(2)
	watermarks := make(chan uint64, batches)
	go func() {
		defer wg.Done()
		defer close(watermarks)
		for i := 0; i < batches; i++ {
			if err := begin(l, mkBatch(i*3, 3)).Wait(); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			if i%10 == 0 {
				// A durability cut pins a watermark at a batch boundary.
				watermarks <- uint64((i + 1) * 3)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for wm := range watermarks {
			if _, err := l.TruncateBefore(wm); err != nil {
				t.Errorf("truncate at %d: %v", wm, err)
				return
			}
		}
	}()
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and replay from the last pinned watermark: everything above
	// it must still be there, contiguous.
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	first := l2.Stats().FirstIndex
	got := replayAll(t, l2, first)
	wantRecords := batches - int(first)/3
	if len(got) != wantRecords {
		t.Fatalf("replayed %d records from %d, want %d", len(got), first, wantRecords)
	}
}

// TestAbandonDuringActiveFlushGroup: Abandon landing while a flush group
// is mid-write (leader inside writeGroup, holding fileMu) must neither
// deadlock nor lose the in-flight group — its Wait already promised
// durability, and Abandon's file close queues behind the write. The fault
// injector makes the interleaving deterministic: the write hook parks the
// leader until Abandon has been issued.
func TestAbandonDuringActiveFlushGroup(t *testing.T) {
	dir := t.TempDir()
	var once sync.Once
	inWrite := make(chan struct{})
	abandonIssued := make(chan struct{})
	l, err := Open(Options{Dir: dir, Policy: SyncGroup, Inject: &FaultInjector{
		BeforeWrite: func(string, int64, int) error {
			once.Do(func() {
				close(inWrite)
				<-abandonIssued
			})
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	commit := begin(l, mkBatch(0, 50))
	waitErr := make(chan error, 1)
	go func() { waitErr <- commit.Wait() }()
	<-inWrite // leader is inside writeGroup with fileMu held

	abandonDone := make(chan struct{})
	go func() {
		l.Abandon()
		close(abandonDone)
	}()
	time.Sleep(10 * time.Millisecond) // let Abandon latch closed and block on fileMu
	close(abandonIssued)

	if err := <-waitErr; err != nil {
		t.Fatalf("in-flight group's Wait: %v", err)
	}
	select {
	case <-abandonDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Abandon deadlocked against the active flush group")
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	records := replayAll(t, l2, 0)
	if len(records) != 1 || len(records[0]) != 50 {
		t.Fatalf("recovered %d records, want the 1 acknowledged in-flight batch of 50 events", len(records))
	}
}

// TestReplayAtSegmentBoundary: replay (and follower polls) starting exactly
// at a sealed segment's first index deliver from that record with nothing
// skipped and nothing duplicated.
func TestReplayAtSegmentBoundary(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncGroup, SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]tgraph.Event
	for i := 0; i < 30; i++ {
		b := mkBatch(i*2, 2)
		want = append(want, b)
		if err := begin(l, b).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments, need ≥ 3 for a boundary test", len(segs))
	}
	boundary := segs[1].first
	if boundary%2 != 0 {
		t.Fatalf("segment boundary %d is not a batch boundary", boundary)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2, boundary)
	wantFrom := want[boundary/2:]
	if len(got) != len(wantFrom) {
		t.Fatalf("replayed %d records from boundary %d, want %d", len(got), boundary, len(wantFrom))
	}
	for i := range got {
		if !eventsBitEqual(got[i], wantFrom[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}

	f, err := OpenFollower(dir, boundary)
	if err != nil {
		t.Fatal(err)
	}
	polled := 0
	if _, err := f.Poll(func(Record) error { polled++; return nil }); err != nil {
		t.Fatal(err)
	}
	if polled != len(wantFrom) {
		t.Fatalf("follower from boundary delivered %d, want %d", polled, len(wantFrom))
	}
}

// TestSealedSegmentCorruption: a bit flip inside a sealed (non-newest)
// segment must fail Open loudly — only the newest segment may be torn —
// and a follower must park before the damage rather than skip it.
func TestSealedSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncGroup, SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := begin(l, mkBatch(i*2, 2)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need ≥ 2 segments, got %d", len(segs))
	}
	// Flip one payload byte mid-way through the first (sealed) segment.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "torn record inside the log") {
		t.Fatalf("Open on sealed-segment corruption: err=%v, want torn-record-inside-log", err)
	}

	f, err := OpenFollower(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := -1
	for poll := 0; poll < 2; poll++ {
		n, perr := f.Poll(func(Record) error { return nil })
		if perr != nil {
			t.Fatalf("follower poll on corrupt sealed segment: %v", perr)
		}
		if before >= 0 && n != 0 {
			t.Fatalf("follower advanced past corruption: %d new records", n)
		}
		before = n
	}
	if f.Cursor() >= segs[1].first {
		t.Fatalf("follower cursor %d crossed the damaged segment into %d", f.Cursor(), segs[1].first)
	}
}
