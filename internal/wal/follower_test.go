package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"apan/internal/tgraph"
)

// pollAll drains one Poll, appending delivered records to *got.
func pollAll(t *testing.T, f *Follower, got *[][]tgraph.Event) int {
	t.Helper()
	n, err := f.Poll(func(rec Record) error {
		if rec.Dim != testDim || !floatsBitEqual(rec.Rows, testRows(rec.Events)) {
			return fmt.Errorf("record at %d arrived with %d values of dim %d that are not its rows", rec.First, len(rec.Rows), rec.Dim)
		}
		*got = append(*got, rec.Events)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFollowerTracksShipper: a follower polling between incremental ship
// passes receives every record exactly once, in order, across rotations.
func TestFollowerTracksShipper(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	l, err := Open(Options{Dir: src, Policy: SyncGroup, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sh := NewShipper(src, DirDest{Dir: dst}, ShipOptions{ChunkBytes: 128})
	f, err := OpenFollower(dst, 0)
	if err != nil {
		t.Fatal(err)
	}

	var want, got [][]tgraph.Event
	idx := uint64(0)
	for i := 0; i < 15; i++ {
		b := mkBatch(i*5, 5)
		want = append(want, b)
		if err := begin(l, b).Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.ShipNow(); err != nil {
			t.Fatal(err)
		}
		if n := pollAll(t, f, &got); n != 1 {
			t.Fatalf("batch %d: poll delivered %d records, want 1", i, n)
		}
		idx += 5
		if f.Cursor() != idx {
			t.Fatalf("cursor %d, want %d", f.Cursor(), idx)
		}
	}
	for i := range want {
		if !eventsBitEqual(want[i], got[i]) {
			t.Fatalf("record %d content mismatch", i)
		}
	}
	// Idle polls deliver nothing.
	if n := pollAll(t, f, &got); n != 0 {
		t.Fatalf("idle poll delivered %d", n)
	}
}

// TestFollowerTornTailWaits: a half-shipped record parks the follower; the
// completing chunk un-parks it. Byte-level: ship a prefix of the source
// file that ends mid-frame.
func TestFollowerTornTailWaits(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	writeTestLog(t, src, 9, 3, 4)
	segs, err := listSegments(src)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(segs[0].path)
	dest := DirDest{Dir: dst}
	// Ship all but the last 5 bytes: the final record is torn.
	if err := dest.WriteChunk(name, 0, data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFollower(dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]tgraph.Event
	if n := pollAll(t, f, &got); n != 2 {
		t.Fatalf("delivered %d records from torn copy, want 2", n)
	}
	if n := pollAll(t, f, &got); n != 0 {
		t.Fatalf("re-poll on parked tail delivered %d", n)
	}
	// Complete the tail; the parked record is delivered.
	if err := dest.WriteChunk(name, int64(len(data)-5), data[len(data)-5:]); err != nil {
		t.Fatal(err)
	}
	if n := pollAll(t, f, &got); n != 1 {
		t.Fatalf("completing chunk delivered %d records, want 1", n)
	}
	if f.Cursor() != 12 {
		t.Fatalf("cursor %d, want 12", f.Cursor())
	}
}

// TestFollowerFromWatermark: records wholly below the start watermark are
// skipped; a watermark inside a record is an error.
func TestFollowerFromWatermark(t *testing.T) {
	dir := t.TempDir()
	writeTestLog(t, dir, 11, 4, 6)

	f, err := OpenFollower(dir, 12)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]tgraph.Event
	if n := pollAll(t, f, &got); n != 2 {
		t.Fatalf("delivered %d records from watermark 12, want 2", n)
	}

	f2, err := OpenFollower(dir, 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Poll(func(Record) error { return nil }); err == nil {
		t.Fatal("watermark inside a record: want error")
	}
}

// TestFollowerGapErrors: a shipped log that resumes past the cursor is a
// hole in acknowledged history — Poll must fail, not skip.
func TestFollowerGapErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AlignTo(100); err != nil {
		t.Fatal(err)
	}
	if err := begin(l, mkBatch(0, 4)).Wait(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	f, err := OpenFollower(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Poll(func(Record) error { return nil }); err == nil {
		t.Fatal("gap between cursor 0 and record 100: want error")
	}
	// From the watermark itself the gap is legal (checkpoint covers it).
	f2, err := OpenFollower(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]tgraph.Event
	if n := pollAll(t, f2, &got); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
}

// TestFollowerFnErrorPropagates: fn errors abort the poll verbatim and do
// not advance the cursor past the failing record.
func TestFollowerFnErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	writeTestLog(t, dir, 3, 2, 4)
	f, err := OpenFollower(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("apply failed")
	calls := 0
	_, err = f.Poll(func(Record) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err=%v, want %v", err, boom)
	}
	if f.Cursor() != 4 {
		t.Fatalf("cursor %d after failed second record, want 4", f.Cursor())
	}
}

// TestFollowerIdlePollAllocs: a poll that finds no new bytes allocates in
// proportion to what is left of the segment, not a 1 MiB read buffer — a
// standby polls on every tick whether or not the leader wrote.
func TestFollowerIdlePollAllocs(t *testing.T) {
	dir := t.TempDir()
	writeTestLog(t, dir, 1, 3, 4)
	f, err := OpenFollower(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]tgraph.Event
	if n := pollAll(t, f, &got); n != 3 {
		t.Fatalf("delivered %d records, want 3", n)
	}
	const polls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range polls {
		pollAll(t, f, &got)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / polls; per > 64<<10 {
		t.Fatalf("an idle poll allocates %d B, want at most 64 KiB", per)
	}
}
