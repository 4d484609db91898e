package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"apan/internal/tgraph"
)

// Policy selects when appended records are fsynced.
type Policy int

const (
	// SyncGroup fsyncs once per flushed commit group: Commit.Wait returns
	// only after the record is durable. The fsync is amortized over every
	// batch that joined the group, so throughput degrades gracefully under
	// load instead of paying one fsync per batch.
	SyncGroup Policy = iota
	// SyncInterval writes groups immediately but fsyncs from a background
	// ticker: bounded data loss (one interval) at near-SyncNone throughput.
	SyncInterval
	// SyncNone leaves fsync to the OS. A machine crash can lose the page
	// cache tail; recovery still works from the last durable prefix.
	SyncNone
)

func (p Policy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps the -fsync flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want group, interval or none)", s)
}

// Options configures Open.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// Policy is the fsync policy (default SyncGroup).
	Policy Policy
	// SyncEvery is the SyncInterval period (default 50ms).
	SyncEvery time.Duration
	// SegmentBytes rotates to a fresh segment once the active one reaches
	// this size (default 64 MiB). Rotation happens at group boundaries, so
	// segments may overshoot by one group.
	SegmentBytes int64
	// Inject, when non-nil, interposes fault-injection hooks before
	// segment writes and fsyncs (see FaultInjector). Testing only.
	Inject *FaultInjector
}

type segInfo struct {
	path  string
	first uint64
}

// Log is the write-ahead event log. BeginRecord/Wait are safe for any number
// of concurrent appenders; ReplayRecords and AlignTo are recovery-time
// operations that must not race appends.
type Log struct {
	opts Options

	// mu guards the encode buffer and group bookkeeping. It is held only
	// for memory work — never across file I/O — so BeginRecord stays cheap
	// even while a flush is in progress.
	mu         sync.Mutex
	cond       *sync.Cond
	buf        []byte // encode buffer for the currently accepting group
	spare      []byte // double buffer, swapped in by the flush leader
	bufFirst   uint64 // record index of the first record in buf
	nextIndex  uint64 // log index the next appended event receives
	sealedSeq  uint64 // groups handed to a flush leader so far
	flushedSeq uint64 // groups fully flushed so far
	flushing   bool   // a leader is writing; at most one at a time
	forceSync  bool   // next group fsyncs regardless of policy
	err        error  // first I/O error; latched, fails all later commits
	closed     bool

	appendedBatches uint64
	appendedEvents  uint64

	// fileMu guards segment-file state. The flush leader holds it for the
	// duration of its write; mu and fileMu are never nested.
	fileMu       sync.Mutex
	seg          *os.File
	segSize      int64
	segments     []segInfo
	firstDurable uint64
	durableBytes int64
	flushes      uint64
	syncs        uint64

	tickStop chan struct{}
	tickDone chan struct{}
	tickOnce sync.Once
}

// Open scans dir, validates the segment chain, truncates a torn tail on the
// newest segment, and returns a log ready to append after the last durable
// record. Corruption anywhere but the tail is an error: the log refuses to
// resurrect a history with holes in it.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 50 * time.Millisecond
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}

	l := &Log{opts: opts}
	l.cond = sync.NewCond(&l.mu)

	cursor := uint64(0)
	for i, si := range segs {
		last := i == len(segs)-1
		name := filepath.Base(si.path)
		next := si.first
		end, torn, serr := scanSegment(si.path, si.first, 0, func(s recordShape, _ []byte) error {
			if s.first < next {
				return fmt.Errorf("wal: %s: record %d overlaps records ending at %d", name, s.first, next)
			}
			next = s.first + uint64(s.count)
			return nil
		})
		switch {
		case last && (end == 0 && torn || errors.Is(serr, errBadHeader)):
			// Crash before the newest segment's header landed whole: the
			// file holds nothing durable, so drop it.
			if rerr := os.Remove(si.path); rerr != nil {
				return nil, fmt.Errorf("wal: %w", rerr)
			}
			continue
		case serr != nil:
			return nil, serr
		case si.first < cursor:
			return nil, fmt.Errorf("wal: %s: segment overlaps records ending at %d", name, cursor)
		case torn && !last:
			return nil, fmt.Errorf("wal: %s: torn record inside the log (only the newest segment may be torn)", name)
		case torn:
			if terr := os.Truncate(si.path, end); terr != nil {
				return nil, fmt.Errorf("wal: %w", terr)
			}
		}
		cursor = next
		l.segments = append(l.segments, si)
		l.durableBytes += end
	}
	l.nextIndex = cursor
	if len(l.segments) > 0 {
		l.firstDurable = l.segments[0].first
		// Reopen the newest segment for appending so a restart continues
		// filling it rather than leaking a short segment per run.
		lastSeg := l.segments[len(l.segments)-1]
		f, oerr := os.OpenFile(lastSeg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr != nil {
			return nil, fmt.Errorf("wal: %w", oerr)
		}
		st, serr := f.Stat()
		if serr != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", serr)
		}
		l.seg, l.segSize = f, st.Size()
	}

	if opts.Policy == SyncInterval {
		l.tickStop = make(chan struct{})
		l.tickDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

func (l *Log) syncLoop() {
	defer close(l.tickDone)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.tickStop:
			return
		case <-t.C:
			l.Sync() // error is latched in l.err; commits surface it
		}
	}
}

// Commit is a by-value ticket for one BeginRecord: Wait blocks until the
// record's commit group is flushed (and, under SyncGroup, fsynced). The zero
// Commit waits on nothing — BeginRecord returns it for empty batches.
type Commit struct {
	log *Log
	seq uint64
}

// Wait blocks until the ticket's group is flushed, returning the log's
// latched error if the group (or any earlier one) failed to reach disk.
func (c Commit) Wait() error {
	if c.log == nil {
		return nil
	}
	return c.log.waitFlushed(c.seq, false)
}

// BeginRecord encodes one batch as a record — its events and the embedding
// rows the synchronous link computed for them (see the layout in codec.go;
// len(rows) must be a multiple of dim) — assigns it the next run of log
// indices, and returns a by-value commit ticket. It must be called in graph
// apply order — the caller's serial apply point provides that. BeginRecord
// only touches memory, and copies what it is given; call Wait (off any
// model locks) to make the record durable. Steady-state BeginRecord is
// allocation-free: the encode buffer and its double are retained across
// groups.
func (l *Log) BeginRecord(events []tgraph.Event, rows []float32, dim int) Commit {
	if len(events) == 0 {
		return Commit{}
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		panic("wal: BeginRecord on closed log")
	}
	if len(l.buf) == 0 {
		l.bufFirst = l.nextIndex
	}
	l.buf = appendRecord(l.buf, l.nextIndex, events, rows, dim)
	l.nextIndex += uint64(len(events))
	l.appendedBatches++
	l.appendedEvents += uint64(len(events))
	seq := l.sealedSeq + 1
	l.mu.Unlock()
	return Commit{log: l, seq: seq}
}

// Begin is BeginRecord with no rows: a record core.Model.ReplayBatch
// refuses, because nothing in it says what the batch computed.
//
// Deprecated: kept, with Replay, only because benchmark/ladder.go — which a
// change outside a benchmark PR may not edit — times the codec through these
// two signatures. The next benchmark PR should move it to BeginRecord and
// ReplayRecords and delete both.
func (l *Log) Begin(events []tgraph.Event) Commit {
	return l.BeginRecord(events, nil, 0)
}

// waitFlushed blocks until group seq is flushed, electing the caller as
// flush leader when no flush is in progress: the leader seals the buffer,
// writes it with mu released, then wakes every waiter of the group.
func (l *Log) waitFlushed(seq uint64, force bool) error {
	l.mu.Lock()
	if force {
		l.forceSync = true
	}
	for l.flushedSeq < seq {
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		if l.flushing || l.sealedSeq >= seq {
			l.cond.Wait()
			continue
		}
		l.flushing = true
		l.sealedSeq++
		target := l.sealedSeq
		buf, first, fsync := l.buf, l.bufFirst, l.forceSync
		l.buf = l.spare[:0]
		l.forceSync = false
		l.mu.Unlock()

		werr := l.writeGroup(buf, first, fsync)

		l.mu.Lock()
		l.spare = buf[:0]
		l.flushing = false
		l.flushedSeq = target
		if werr != nil && l.err == nil {
			l.err = werr
		}
		l.cond.Broadcast()
	}
	err := l.err
	l.mu.Unlock()
	return err
}

// writeGroup appends one sealed group to the active segment, rotating at
// group boundaries, and fsyncs per policy. Called only by the flush leader.
func (l *Log) writeGroup(buf []byte, first uint64, force bool) error {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if len(buf) > 0 {
		if l.seg == nil || l.segSize >= l.opts.SegmentBytes {
			if err := l.rotateLocked(first); err != nil {
				return err
			}
		}
		if err := l.injectWrite(l.segSize, len(buf)); err != nil {
			return fmt.Errorf("wal: write segment: %w", err)
		}
		n, err := l.seg.Write(buf)
		l.segSize += int64(n)
		l.durableBytes += int64(n)
		if err != nil {
			return fmt.Errorf("wal: write segment: %w", err)
		}
		l.flushes++
	}
	if l.seg != nil && (l.opts.Policy == SyncGroup || force) {
		if err := l.injectSync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.syncs++
	}
	return nil
}

// rotateLocked seals the active segment and starts a fresh one whose first
// record has index first. Requires fileMu.
func (l *Log) rotateLocked(first uint64) error {
	if l.seg != nil {
		// Seal with an fsync regardless of policy: a finished segment is
		// immutable history, cheap to pin down once.
		if err := l.injectSync(); err != nil {
			return fmt.Errorf("wal: fsync sealed segment: %w", err)
		}
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: fsync sealed segment: %w", err)
		}
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: close sealed segment: %w", err)
		}
		l.seg = nil
	}
	path := filepath.Join(l.opts.Dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:4], segMagic)
	le.PutUint32(hdr[4:], segVersion)
	le.PutUint64(hdr[8:], first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.seg, l.segSize = f, segHeaderSize
	l.durableBytes += segHeaderSize
	l.segments = append(l.segments, segInfo{path: path, first: first})
	if len(l.segments) == 1 {
		l.firstDurable = first
	}
	SyncDir(l.opts.Dir) // best effort: some filesystems refuse directory fsync
	return nil
}

// SyncDir fsyncs dir, so the entries created or renamed in it — a new log
// segment, a checkpoint's rename — survive a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sync flushes any buffered records and forces an fsync regardless of
// policy. It participates in the ordinary leader protocol, so it is safe
// concurrently with appends.
func (l *Log) Sync() error {
	l.mu.Lock()
	seq := l.sealedSeq + 1
	l.mu.Unlock()
	return l.waitFlushed(seq, true)
}

// AlignTo declares that everything before watermark is covered by a
// checkpoint, positioning the next append at exactly that index. A forward
// jump leaves a legal gap in the record indices (replay never reads below
// the watermark); a log already past the watermark is an error, because
// appending would assign duplicate indices. Must be called with no appends
// in flight — i.e. during attach, before serving starts. A flush already in
// progress is waited out, not refused: under SyncInterval the background
// sync takes the flush leadership with an empty buffer every SyncEvery, and
// that is not an append.
func (l *Log) AlignTo(watermark uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if len(l.buf) > 0 {
		return errors.New("wal: AlignTo with appends in flight")
	}
	if l.nextIndex > watermark {
		return fmt.Errorf("wal: log already at index %d, past watermark %d — recover (replay) before attaching", l.nextIndex, watermark)
	}
	l.nextIndex = watermark
	return nil
}

// NextIndex returns the log index the next appended event would receive —
// after Open, the end of the durable log.
func (l *Log) NextIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextIndex
}

// ReplayRecords streams every durable record intersecting [from, ∞) to fn in
// log order. It is one Poll of a Follower opened at from over the log's
// directory, so it reads frames and applies the watermark rule exactly as a
// warm standby does: records wholly below from are skipped, and from on the
// records must be contiguous — a watermark inside a record, or a record
// starting past the cursor (acknowledged events are missing), is an error.
// The poll must also end at the clean end of the newest segment; one that
// stops on torn bytes, or before a successor segment starting past the
// cursor, is an error too. ReplayRecords reads the segment files only; it
// must not race appends (recovery runs it before attach).
func (l *Log) ReplayRecords(from uint64, fn func(Record) error) error {
	f := &Follower{dir: l.opts.Dir, cursor: from}
	_, atEnd, err := f.poll(fn)
	if err == nil && !atEnd {
		err = fmt.Errorf("wal: replay stopped at cursor %d before the end of the log (torn bytes, or a gap before the next segment)", f.cursor)
	}
	return err
}

// Replay is ReplayRecords without the rows.
//
// Deprecated: see Begin.
func (l *Log) Replay(from uint64, fn func(first uint64, events []tgraph.Event) error) error {
	return l.ReplayRecords(from, func(rec Record) error { return fn(rec.First, rec.Events) })
}

// TruncateBefore removes whole segments whose records all precede the
// snapshot-pinned watermark. The active (newest) segment always survives,
// so truncation never interferes with appends; partial segments survive
// too — space is reclaimed at segment granularity.
func (l *Log) TruncateBefore(watermark uint64) (removed int, err error) {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	for len(l.segments) >= 2 && l.segments[1].first <= watermark {
		path := l.segments[0].path
		if st, serr := os.Stat(path); serr == nil {
			l.durableBytes -= st.Size()
		}
		if rerr := os.Remove(path); rerr != nil {
			return removed, fmt.Errorf("wal: %w", rerr)
		}
		l.segments = l.segments[1:]
		removed++
	}
	if len(l.segments) > 0 {
		l.firstDurable = l.segments[0].first
	}
	return removed, nil
}

// Stats is a point-in-time snapshot of the log's counters for /v1/stats.
type Stats struct {
	Policy          string `json:"policy"`
	FirstIndex      uint64 `json:"first_index"`
	NextIndex       uint64 `json:"next_index"`
	Segments        int    `json:"segments"`
	DurableBytes    int64  `json:"durable_bytes"`
	AppendedBatches uint64 `json:"appended_batches"`
	AppendedEvents  uint64 `json:"appended_events"`
	Flushes         uint64 `json:"flushes"`
	Syncs           uint64 `json:"syncs"`
	Err             string `json:"err,omitempty"`
}

// Stats reports the log's counters.
func (l *Log) Stats() Stats {
	var s Stats
	s.Policy = l.opts.Policy.String()
	l.mu.Lock()
	s.NextIndex = l.nextIndex
	s.AppendedBatches = l.appendedBatches
	s.AppendedEvents = l.appendedEvents
	if l.err != nil {
		s.Err = l.err.Error()
	}
	l.mu.Unlock()
	l.fileMu.Lock()
	s.FirstIndex = l.firstDurable
	s.Segments = len(l.segments)
	s.DurableBytes = l.durableBytes
	s.Flushes = l.flushes
	s.Syncs = l.syncs
	l.fileMu.Unlock()
	return s
}

// Err returns the latched I/O error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close flushes and fsyncs outstanding records, then closes the log. The
// log must not be used afterwards.
func (l *Log) Close() error {
	l.stopTicker()
	err := l.Sync()
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.fileMu.Lock()
	if l.seg != nil {
		if cerr := l.seg.Close(); err == nil {
			err = cerr
		}
		l.seg = nil
	}
	l.fileMu.Unlock()
	return err
}

// Abandon closes the log WITHOUT flushing buffered records, simulating a
// process crash for recovery tests: records whose Wait returned are on disk
// (or in the page cache, per policy); everything still in the encode buffer
// is lost, exactly as a kill -9 would lose it. The caller must have
// quiesced appenders first.
func (l *Log) Abandon() {
	l.stopTicker()
	l.mu.Lock()
	l.closed = true
	l.buf = l.buf[:0]
	l.mu.Unlock()
	l.fileMu.Lock()
	if l.seg != nil {
		l.seg.Close()
		l.seg = nil
	}
	l.fileMu.Unlock()
}

func (l *Log) stopTicker() {
	if l.tickStop == nil {
		return
	}
	l.tickOnce.Do(func() { close(l.tickStop) })
	<-l.tickDone
}
