package wal

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Follower incrementally tails a shipped WAL directory, delivering each
// newly intact record exactly once, in log order. Unlike Replay — a
// one-shot pass over a finished log — Poll is built to be called forever
// against a directory that is still growing: an incomplete or torn tail is
// not an error, it is simply where this poll stops and the next one
// resumes. The same strictness as ReplayRecords applies to what is
// delivered: the first record at or above the start watermark must begin
// exactly there, and indices must be contiguous from then on.
//
// Not safe for concurrent use; the replica's single control loop owns it.
type Follower struct {
	dir    string
	cursor uint64 // next record index to deliver

	seg     segInfo // segment currently being scanned
	off     int64   // byte offset of the first unconsumed frame in seg
	hasSeg  bool
	started bool // first record delivered (start-gap check done)

	rows []float32 // Record.Rows of the last delivery, reused by the next
}

// OpenFollower returns a follower that will deliver records starting at
// log index from — the caller's checkpoint watermark. The directory may
// not exist yet; Poll treats that as an empty log.
func OpenFollower(dir string, from uint64) (*Follower, error) {
	if dir == "" {
		return nil, errors.New("wal: follower dir required")
	}
	return &Follower{dir: dir, cursor: from}, nil
}

// Cursor returns the next record index the follower expects — equivalently,
// the number of events it has durably applied counting from log index 0.
func (f *Follower) Cursor() uint64 { return f.cursor }

// Poll scans forward from where the previous Poll stopped, invoking fn for
// every intact record at or above the watermark, and returns the number of
// records delivered. A partial frame, torn record, or not-yet-shipped
// successor segment ends the poll without error; real corruption of
// already-contiguous history (decode failure after a CRC pass, an index
// gap) is an error. fn errors abort the poll and are returned verbatim.
func (f *Follower) Poll(fn func(Record) error) (int, error) {
	delivered := 0
	for {
		if !f.hasSeg {
			ok, err := f.locateSegment()
			if err != nil || !ok {
				return delivered, err
			}
		}
		n, cont, err := f.scanFrom(fn)
		delivered += n
		if err != nil || !cont {
			return delivered, err
		}
		// Clean end of the current segment: advance iff a successor holding
		// the cursor has been shipped; otherwise wait for more bytes here.
		segs, err := listSegments(f.dir)
		if err != nil {
			return delivered, err
		}
		var next *segInfo
		for i := range segs {
			if segs[i].first > f.seg.first {
				next = &segs[i]
				break
			}
		}
		if next == nil || next.first > f.cursor {
			// No successor yet (or it starts past our cursor, meaning this
			// segment still owes us records): park and re-poll later.
			return delivered, nil
		}
		f.seg, f.off = *next, 0
	}
}

// locateSegment picks the segment covering the cursor: the last one whose
// first index is ≤ cursor. Returns false (no error) when nothing shipped
// yet covers it.
func (f *Follower) locateSegment() (bool, error) {
	segs, err := listSegments(f.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	idx := -1
	for i := range segs {
		if segs[i].first <= f.cursor {
			idx = i
		}
	}
	if idx < 0 {
		if len(segs) > 0 && !f.started {
			// The oldest shipped segment starts past the watermark. For a
			// fresh follower that is a forward gap the leader's AlignTo
			// created below the checkpoint watermark — wait for nothing;
			// records at the watermark will arrive in that first segment.
			// If its records begin past the cursor, scanFrom reports the
			// gap as an error.
			idx = 0
		} else if len(segs) > 0 {
			return false, fmt.Errorf("wal: follower: shipped log starts at %d, past cursor %d", segs[0].first, f.cursor)
		} else {
			return false, nil
		}
	}
	f.seg, f.off, f.hasSeg = segs[idx], 0, true
	return true, nil
}

// scanFrom reads intact frames from f.seg starting at f.off. Returns
// cont=true on a clean segment end (caller may advance to a successor),
// cont=false when parked on a torn/incomplete tail.
func (f *Follower) scanFrom(fn func(Record) error) (delivered int, cont bool, err error) {
	file, err := os.Open(f.seg.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, false, nil // re-ship hasn't recreated it yet
		}
		return 0, false, err
	}
	defer file.Close()

	if f.off == 0 {
		var hdr [segHeaderSize]byte
		if _, err := io.ReadFull(file, hdr[:]); err != nil {
			return 0, false, nil // header bytes still in flight
		}
		if string(hdr[:4]) != segMagic {
			return 0, false, fmt.Errorf("wal: follower: %s: bad magic %q", filepath.Base(f.seg.path), hdr[:4])
		}
		if v := le.Uint32(hdr[4:]); v != segVersion {
			return 0, false, versionError(filepath.Base(f.seg.path), v)
		}
		if first := le.Uint64(hdr[8:]); first != f.seg.first {
			return 0, false, fmt.Errorf("wal: follower: %s: header index %d disagrees with name", filepath.Base(f.seg.path), first)
		}
		f.off = segHeaderSize
	}
	if _, err := file.Seek(f.off, io.SeekStart); err != nil {
		return 0, false, err
	}
	br := bufio.NewReaderSize(file, 1<<20)

	var frame [frameHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return delivered, err == io.EOF, nil // clean end vs partial header
		}
		n := le.Uint32(frame[:])
		if n > maxPayloadBytes {
			return delivered, false, nil // garbage length: park until overwritten or promoted
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return delivered, false, nil // payload bytes still in flight
		}
		if crc32.Checksum(payload, crcTable) != le.Uint32(frame[4:]) {
			return delivered, false, nil // mid-overwrite or torn: wait
		}
		shape, derr := checkRecord(payload)
		if derr != nil {
			return delivered, false, fmt.Errorf("wal: follower: %s at offset %d: %w", filepath.Base(f.seg.path), f.off, derr)
		}
		first, end := shape.first, shape.first+uint64(shape.count)
		switch {
		case end <= f.cursor:
			// Wholly below the watermark (or already applied): skip.
		case first < f.cursor:
			return delivered, false, fmt.Errorf("wal: follower: cursor %d falls inside record [%d,%d)", f.cursor, first, end)
		case first > f.cursor:
			return delivered, false, fmt.Errorf("wal: follower: replay gap: record at %d, cursor is %d", first, f.cursor)
		default:
			rec := shape.decode(payload, f.rows)
			f.rows = rec.Rows
			if err := fn(rec); err != nil {
				return delivered, false, err
			}
			f.cursor = end
			f.started = true
			delivered++
		}
		f.off += int64(frameHeaderSize) + int64(len(payload))
	}
}
