package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// On-disk layout.
//
// Segment file wal-%016x.seg (name = index of the first record):
//
//	header  : "APWL" | version u32 | firstIndex u64          (16 bytes)
//	records : frame*
//
// Record frame:
//
//	frame   : payloadLen u32 | crc32c(payload) u32 | payload
//	payload : firstIndex u64 | count u32 | event* | rows u32 | dim u32 | rowBits u32*
//	event   : src u32 | dst u32 | timeBits u64 | label u8 | featLen u32 | featBits u32*
//
// The rows are what the synchronous link computed for the batch: one
// dim-wide embedding z(t) per distinct endpoint, in order of first
// appearance (src before dst, event by event), rows·dim values in all.
// Replay writes them back instead of recomputing them. All integers
// little-endian; floats stored as IEEE-754 bit patterns, so a decode is
// bit-exact. Record indices within and across segments must be
// non-decreasing and non-overlapping; forward gaps are legal (AlignTo
// creates one when a checkpoint outruns the durable log).
//
// Version 1 segments carried events only and were replayed by running
// inference again; this build refuses them (see versionError).
const (
	segMagic        = "APWL"
	segVersion      = 2
	segHeaderSize   = 16
	frameHeaderSize = 8
	segSuffix       = ".seg"
	segPrefix       = "wal-"

	recordHeadBytes = 12 // firstIndex | count
	eventHeadBytes  = 21 // src | dst | timeBits | label | featLen
	rowsHeadBytes   = 8  // rows | dim

	// maxPayloadBytes bounds a frame's declared length so a corrupt length
	// field cannot drive an OOM-sized allocation; larger means torn/corrupt.
	maxPayloadBytes = 1 << 30
	// maxFeatLen mirrors the checkpoint codec's feature-length sanity bound;
	// it also bounds a record's embedding dimension.
	maxFeatLen = 1 << 20
)

var (
	le       = binary.LittleEndian
	crcTable = crc32.MakeTable(crc32.Castagnoli)

	// errBadHeader marks a segment whose header has the wrong magic. Open
	// discards such a newest segment, as it does one whose header never
	// landed; anywhere else, and to a Follower, it is fatal corruption.
	errBadHeader = errors.New("wal: bad segment header")
)

// versionError is what Open and a Follower report for a segment of another
// format version. There is no converter: a version 1 log holds no
// embeddings, and a log is truncated at every checkpoint anyway.
func versionError(name string, v uint32) error {
	return fmt.Errorf("wal: %s: segment format version %d, this build reads and writes version %d (records carry the batch's embeddings): drain the old process, write a checkpoint, and start on an empty log directory", name, v, segVersion)
}

// Record is one logged batch as ReplayRecords and Follower.Poll deliver it.
type Record struct {
	// First is the log index of Events[0].
	First uint64
	// Events are freshly allocated, their Feat slices cut from one array
	// per record: the temporal graph retains them on replay.
	Events []tgraph.Event
	// Rows holds the batch's embeddings, row-major, len(Rows)/Dim rows of
	// Dim values (see the layout above). It is the scanner's scratch,
	// valid only until the callback returns.
	Rows []float32
	Dim  int
}

// appendRecord appends one framed record to buf: events, whose first event
// has log index first, and the batch's embedding rows (len(rows) a multiple
// of dim; both zero for none). The frame's size is known up front, so buf
// grows at most once and a warmed buffer makes the encode allocation-free.
func appendRecord(buf []byte, first uint64, events []tgraph.Event, rows []float32, dim int) []byte {
	nRows := 0
	if dim > 0 {
		nRows = len(rows) / dim
	}
	if nRows*dim != len(rows) {
		panic(fmt.Sprintf("wal: %d embedding values do not make rows of %d", len(rows), dim))
	}
	size := frameHeaderSize + recordHeadBytes + rowsHeadBytes + 4*len(rows)
	for i := range events {
		size += eventHeadBytes + 4*len(events[i].Feat)
	}
	head := len(buf)
	buf = slices.Grow(buf, size)[:head+size]
	payload := buf[head+frameHeaderSize:]

	le.PutUint64(payload, first)
	le.PutUint32(payload[8:], uint32(len(events)))
	o := recordHeadBytes
	for i := range events {
		ev := &events[i]
		le.PutUint32(payload[o:], uint32(ev.Src))
		le.PutUint32(payload[o+4:], uint32(ev.Dst))
		le.PutUint64(payload[o+8:], math.Float64bits(ev.Time))
		payload[o+16] = byte(ev.Label)
		le.PutUint32(payload[o+17:], uint32(len(ev.Feat)))
		// In place: the frame is already sized, so AppendLE never grows it.
		o = len(tensor.AppendLE(payload[:o+eventHeadBytes], ev.Feat))
	}
	le.PutUint32(payload[o:], uint32(nRows))
	le.PutUint32(payload[o+4:], uint32(dim))
	tensor.AppendLE(payload[:o+rowsHeadBytes], rows)

	le.PutUint32(buf[head:], uint32(len(payload)))
	le.PutUint32(buf[head+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// recordShape is what a payload's length fields say once checkRecord has
// held every one of them against the bytes actually present.
type recordShape struct {
	first   uint64
	count   int // events
	feats   int // feature values over all events
	rowsOff int // offset of the first embedding value
	dim     int
}

// checkRecord validates one record payload without allocating, so a hostile
// count or length cannot size an allocation. The payload must be consumed
// exactly; anything else is a codec mismatch, which after a CRC pass is
// writer-side corruption, not a torn write.
func checkRecord(payload []byte) (recordShape, error) {
	if len(payload) < recordHeadBytes {
		return recordShape{}, fmt.Errorf("wal: record truncated at byte %d", len(payload))
	}
	s := recordShape{first: le.Uint64(payload), count: int(le.Uint32(payload[8:]))}
	if s.count > (len(payload)-recordHeadBytes)/eventHeadBytes {
		return recordShape{}, fmt.Errorf("wal: record count %d exceeds payload", s.count)
	}
	o := recordHeadBytes
	for i := 0; i < s.count; i++ {
		if o+eventHeadBytes > len(payload) {
			return recordShape{}, fmt.Errorf("wal: record truncated at byte %d", len(payload))
		}
		n := le.Uint32(payload[o+17:])
		if n > maxFeatLen {
			return recordShape{}, fmt.Errorf("wal: absurd feature length %d", n)
		}
		s.feats += int(n)
		o += eventHeadBytes + 4*int(n)
	}
	if o+rowsHeadBytes > len(payload) {
		return recordShape{}, fmt.Errorf("wal: record truncated at byte %d", len(payload))
	}
	nRows, dim := le.Uint32(payload[o:]), le.Uint32(payload[o+4:])
	if int64(nRows) > 2*int64(s.count) {
		return recordShape{}, fmt.Errorf("wal: %d embedding rows for %d events", nRows, s.count)
	}
	if dim > maxFeatLen {
		return recordShape{}, fmt.Errorf("wal: absurd embedding dimension %d", dim)
	}
	s.rowsOff, s.dim = o+rowsHeadBytes, int(dim)
	have, need := int64(len(payload)-s.rowsOff), 4*int64(nRows)*int64(dim)
	if need > have {
		return recordShape{}, fmt.Errorf("wal: record truncated: %d embedding bytes declared, %d present", need, have)
	}
	if need < have {
		return recordShape{}, fmt.Errorf("wal: record has %d trailing bytes", have-need)
	}
	return s, nil
}

// decode materializes a checked payload in three allocations, whatever the
// batch size: the events, one array all their features are cut from, and
// the rows — which reuse rowBuf when it is large enough, so a scanner passes
// the previous record's Rows back in (see Record.Rows).
func (s recordShape) decode(payload []byte, rowBuf []float32) Record {
	rec := Record{First: s.first, Events: make([]tgraph.Event, s.count), Dim: s.dim}
	arena := make([]float32, s.feats)
	o := recordHeadBytes
	for i := range rec.Events {
		ev := &rec.Events[i]
		ev.Src = tgraph.NodeID(le.Uint32(payload[o:]))
		ev.Dst = tgraph.NodeID(le.Uint32(payload[o+4:]))
		ev.Time = math.Float64frombits(le.Uint64(payload[o+8:]))
		ev.Label = int8(payload[o+16])
		n := int(le.Uint32(payload[o+17:]))
		// Full slice expression: an append to one event's features must
		// not write into the next event's.
		ev.Feat, arena = arena[:n:n], arena[n:]
		o += eventHeadBytes
		tensor.DecodeLE(ev.Feat, payload[o:])
		o += 4 * n
	}
	n := (len(payload) - s.rowsOff) / 4
	rec.Rows = slices.Grow(rowBuf[:0], n)[:n]
	tensor.DecodeLE(rec.Rows, payload[s.rowsOff:])
	return rec
}

// segmentName formats the file name of the segment whose first record has
// the given log index.
func segmentName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

// parseSegmentName extracts the first-record index from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSegments returns the directory's segment files sorted by first index.
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segInfo{path: filepath.Join(dir, e.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// scanSegment is the one frame reader: Open, ReplayRecords and a Follower
// all read segments through it. It reads the segment file at path from byte
// offset off, which is 0 or the end of a frame an earlier scan returned;
// at 0 it first checks the header against wantFirst, the index encoded in
// the file name. It hands every intact, checked record to visit in file
// order, and returns end, the offset just past the last frame visit
// accepted. torn=true means the bytes past end do not yet make a frame —
// a short header, a partial frame, a CRC mismatch or an absurd length:
// the signature of a crash mid-write, or of bytes still being shipped.
// A header of another magic (errBadHeader), version or index, a payload
// that fails checkRecord after its CRC verified, and visit's own error
// (verbatim) come back in err.
func scanSegment(path string, wantFirst uint64, off int64, visit func(s recordShape, payload []byte) error) (end int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return off, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	name := filepath.Base(path)
	st, err := f.Stat()
	if err != nil {
		return off, false, fmt.Errorf("wal: %w", err)
	}

	if off == 0 {
		var hdr [segHeaderSize]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return 0, true, nil
			}
			return 0, false, fmt.Errorf("wal: %s: %w", name, err)
		}
		if string(hdr[:4]) != segMagic {
			return 0, false, fmt.Errorf("%w: %s: magic %q", errBadHeader, name, hdr[:4])
		}
		if v := le.Uint32(hdr[4:]); v != segVersion {
			return 0, false, versionError(name, v)
		}
		if first := le.Uint64(hdr[8:]); first != wantFirst {
			return 0, false, fmt.Errorf("wal: %s: header index %d disagrees with name", name, first)
		}
		off = segHeaderSize
	} else if _, err := f.Seek(off, io.SeekStart); err != nil {
		return off, false, fmt.Errorf("wal: %w", err)
	}
	// No larger than what is left: a standby polls an idle log on every
	// tick, and a 1 MiB buffer apiece would be its whole allocation.
	br := bufio.NewReaderSize(f, int(min(1<<20, st.Size()-off)))

	var frame [frameHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return off, err != io.EOF, nil // clean end vs partial frame header
		}
		// A length past the bytes present sizes no allocation: those bytes
		// are still in flight, or the field is garbage.
		n := le.Uint32(frame[:])
		if n > maxPayloadBytes || int64(n) > st.Size()-off-frameHeaderSize {
			return off, true, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, true, nil // partial payload
		}
		if crc32.Checksum(payload, crcTable) != le.Uint32(frame[4:]) {
			return off, true, nil // bits flipped, overwritten, or mid-ship
		}
		shape, err := checkRecord(payload)
		if err != nil {
			return off, false, fmt.Errorf("wal: %s at offset %d: %w", name, off, err)
		}
		if err := visit(shape, payload); err != nil {
			return off, false, err
		}
		off += int64(frameHeaderSize) + int64(len(payload))
	}
}
