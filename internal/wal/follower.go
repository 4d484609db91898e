package wal

import (
	"errors"
	"fmt"
	"os"
)

// Follower incrementally tails a shipped WAL directory, delivering each
// newly intact record exactly once, in log order. Poll is built to be
// called forever against a directory that is still growing: an incomplete
// or torn tail is not an error, it is simply where this poll stops and the
// next one resumes. ReplayRecords is one Poll over a finished log, so
// recovery and a standby read frames through the same scanSegment and hold
// what they deliver to the same watermark rule (admit): the first record at
// or above the start watermark must begin exactly there, and indices must
// be contiguous from then on.
//
// Not safe for concurrent use; the replica's single control loop owns it.
type Follower struct {
	dir    string
	cursor uint64 // next record index to deliver

	seg    segInfo // segment currently being scanned
	off    int64   // byte offset of the first unconsumed frame in seg
	hasSeg bool

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
	n, _, err := f.poll(fn)
	return n, err
}

// poll is Poll that also reports whether it stopped at the clean end of the
// newest segment (or found no segment at all) — the whole log read, which
// is what ReplayRecords requires of a finished log.
func (f *Follower) poll(fn func(Record) error) (delivered int, atEnd bool, err error) {
	visit := func(s recordShape, payload []byte) error {
		if ok, err := f.admit(s.first, s.first+uint64(s.count)); !ok {
			return err
		}
		rec := s.decode(payload, f.rows)
		f.rows = rec.Rows
		if err := fn(rec); err != nil {
			return err
		}
		f.cursor += uint64(s.count)
		delivered++
		return nil
	}
	for {
		if !f.hasSeg {
			ok, err := f.locateSegment()
			if err != nil || !ok {
				return delivered, err == nil, err
			}
		}
		end, torn, err := scanSegment(f.seg.path, f.seg.first, f.off, visit)
		f.off = end
		if errors.Is(err, os.ErrNotExist) {
			return delivered, false, nil // re-ship hasn't recreated it yet
		}
		if err != nil || torn {
			return delivered, false, err
		}
		// Clean end of the current segment: advance iff a successor holding
		// the cursor has been shipped; otherwise wait for more bytes here.
		segs, err := listSegments(f.dir)
		if err != nil {
			return delivered, false, err
		}
		i := 0
		for i < len(segs) && segs[i].first <= f.seg.first {
			i++
		}
		if i == len(segs) {
			return delivered, true, nil
		}
		if segs[i].first > f.cursor {
			// The successor starts past our cursor, so this segment still
			// owes us records: park and re-poll later.
			return delivered, false, nil
		}
		f.seg, f.off = segs[i], 0
	}
}

// locateSegment picks the segment covering the cursor: the last one whose
// first index is ≤ cursor. Returns false (no error) when nothing shipped
// yet covers it.
func (f *Follower) locateSegment() (bool, error) {
	segs, err := listSegments(f.dir)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil || len(segs) == 0 {
		return false, err
	}
	// When even the oldest shipped segment starts past the cursor, scan it
	// anyway: the watermark rule refuses its first record as a gap.
	idx := 0
	for i := range segs {
		if segs[i].first <= f.cursor {
			idx = i
		}
	}
	f.seg, f.off, f.hasSeg = segs[idx], 0, true
	return true, nil
}

// admit is the watermark rule, the one contiguity check of every read path:
// a record [first, end) wholly below the cursor is skipped (applied already,
// or covered by the checkpoint); a cursor inside the record, or a record
// starting past it, is refused; otherwise the record is delivered, and the
// caller advances the cursor to end once fn accepts it.
func (f *Follower) admit(first, end uint64) (bool, error) {
	switch {
	case end <= f.cursor:
		return false, nil
	case first < f.cursor:
		return false, fmt.Errorf("wal: cursor %d falls inside record [%d,%d): the checkpoint cut is not batch-aligned", f.cursor, first, end)
	case first > f.cursor:
		return false, fmt.Errorf("wal: replay gap: record at %d past cursor %d", first, f.cursor)
	}
	return true, nil
}
