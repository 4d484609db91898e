package wal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"apan/internal/tgraph"
)

// randEvents draws a batch with adversarial float payloads: NaNs, infs,
// denormals and negative zero must all round-trip bit-exactly.
func randEvents(rng *rand.Rand, n int) []tgraph.Event {
	specials64 := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}
	specials32 := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e-45}
	evs := make([]tgraph.Event, n)
	for i := range evs {
		ev := &evs[i]
		ev.Src = tgraph.NodeID(rng.Int31())
		ev.Dst = tgraph.NodeID(rng.Int31())
		if rng.Intn(4) == 0 {
			ev.Time = specials64[rng.Intn(len(specials64))]
		} else {
			ev.Time = rng.NormFloat64() * 1e6
		}
		ev.Label = int8(rng.Intn(3) - 1)
		ev.Feat = make([]float32, rng.Intn(8))
		for j := range ev.Feat {
			if rng.Intn(4) == 0 {
				ev.Feat[j] = specials32[rng.Intn(len(specials32))]
			} else {
				ev.Feat[j] = float32(rng.NormFloat64())
			}
		}
	}
	return evs
}

// eventsBitEqual compares events by bit pattern, so NaN == NaN.
func eventsBitEqual(a, b []tgraph.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Src != y.Src || x.Dst != y.Dst || x.Label != y.Label {
			return false
		}
		if math.Float64bits(x.Time) != math.Float64bits(y.Time) {
			return false
		}
		if len(x.Feat) != len(y.Feat) {
			return false
		}
		for j := range x.Feat {
			if math.Float32bits(x.Feat[j]) != math.Float32bits(y.Feat[j]) {
				return false
			}
		}
	}
	return true
}

// randRows draws an embedding block for a batch of n events: a row count
// anywhere in the codec's legal range [0, 2n], a small dimension, and the
// same adversarial floats as the features.
func randRows(rng *rand.Rand, n int) (rows []float32, dim int) {
	dim = rng.Intn(6)
	if dim == 0 {
		return nil, 0
	}
	rows = make([]float32, rng.Intn(2*n+1)*dim)
	for i := range rows {
		if rng.Intn(4) == 0 {
			rows[i] = float32(math.Inf(rng.Intn(2)*2 - 1))
		} else if rng.Intn(8) == 0 {
			rows[i] = float32(math.NaN())
		} else {
			rows[i] = float32(rng.NormFloat64())
		}
	}
	return rows, dim
}

func floatsBitEqual(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// testDim and testRows stand in for a batch's embeddings where a test is
// about the log, not the model: len(events)+1 rows whose values name the
// batch, so a record delivered with another record's rows shows.
const testDim = 3

func testRows(events []tgraph.Event) []float32 {
	if len(events) == 0 {
		return nil
	}
	rows := make([]float32, (len(events)+1)*testDim)
	for i := range rows {
		rows[i] = float32(events[0].Src) + float32(i)/8
	}
	return rows
}

// begin logs events with their testRows.
func begin(l *Log, events []tgraph.Event) Commit {
	return l.BeginRecord(events, testRows(events), testDim)
}

// decodeRecord is the scanners' two steps in one.
func decodeRecord(payload []byte) (Record, error) {
	s, err := checkRecord(payload)
	if err != nil {
		return Record{}, err
	}
	return s.decode(payload, nil), nil
}

// TestQuickRecordRoundTrip: encode/decode is bit-exact for arbitrary
// batches and embedding blocks, including special float values.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8, first uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := randEvents(rng, int(nRaw)%40)
		rows, dim := randRows(rng, len(evs))
		buf := appendRecord(nil, first, evs, rows, dim)
		payload := buf[frameHeaderSize:]
		if int(le.Uint32(buf[:4])) != len(payload) {
			return false
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return got.First == first && eventsBitEqual(evs, got.Events) && got.Dim == dim && floatsBitEqual(rows, got.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFrame pins the version 2 record layout byte for byte: two events
// and three embedding rows, written out by hand from the layout comment in
// codec.go (feature and row runs of 5, 1 and 6 floats, so both the
// four-a-step body and the tail of the float codec are on the page). A
// change that moves any byte of a frame is a format change and needs a new
// segment version; the round-trip properties cannot see one.
func TestGoldenFrame(t *testing.T) {
	golden := unhex(t, ""+
		"6e000000 8bc3104b"+ // payloadLen 110 | crc32c(payload)
		"0700000000000000 02000000"+ // firstIndex 7 | count 2
		"01000000 02000000 000000000000f83f"+ // src 1 | dst 2 | time 1.5
		"ff 05000000"+ // label -1 | featLen 5
		"0000803f 000000c0 0000003f 0000803e 000040bf"+ // 1 -2 0.5 0.25 -0.75
		"02000000 03000000 0000000000000040"+ // src 2 | dst 3 | time 2
		"01 01000000 00004040"+ // label 1 | featLen 1 | 3
		"03000000 02000000"+ // rows 3 | dim 2
		"0000803f 00000040 00004040 00008040 0000a040 0000c040") // 1 2 3 4 5 6
	evs := []tgraph.Event{
		{Src: 1, Dst: 2, Time: 1.5, Label: -1, Feat: []float32{1, -2, 0.5, 0.25, -0.75}},
		{Src: 2, Dst: 3, Time: 2, Label: 1, Feat: []float32{3}},
	}
	rows := []float32{1, 2, 3, 4, 5, 6}
	if got := appendRecord(nil, 7, evs, rows, 2); !bytes.Equal(got, golden) {
		t.Fatalf("encoded frame\n%x\nwant\n%x", got, golden)
	}
	rec, err := decodeRecord(golden[frameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if rec.First != 7 || rec.Dim != 2 || !eventsBitEqual(evs, rec.Events) || !floatsBitEqual(rows, rec.Rows) {
		t.Fatalf("decoded %+v", rec)
	}
}

// unhex decodes hex digits, ignoring the spaces between fields.
func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickRecordRoundTripAppended: records framed back to back into one
// warmed buffer decode independently (the group-commit write shape).
func TestQuickRecordRoundTripAppended(t *testing.T) {
	f := func(seed int64, aRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randEvents(rng, int(aRaw)%20+1)
		b := randEvents(rng, int(bRaw)%20+1)
		rowsA, dimA := randRows(rng, len(a))
		rowsB, dimB := randRows(rng, len(b))
		buf := appendRecord(make([]byte, 0, 64), 10, a, rowsA, dimA)
		cut := len(buf)
		buf = appendRecord(buf, 10+uint64(len(a)), b, rowsB, dimB)
		gotA, errA := decodeRecord(buf[frameHeaderSize:cut])
		gotB, errB := decodeRecord(buf[cut+frameHeaderSize:])
		return errA == nil && errB == nil &&
			eventsBitEqual(a, gotA.Events) && eventsBitEqual(b, gotB.Events) &&
			floatsBitEqual(rowsA, gotA.Rows) && floatsBitEqual(rowsB, gotB.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRefusesHostileRows: every length field of the embedding block is
// held against the bytes present before anything is sized from it, and a
// payload must be consumed exactly.
func TestDecodeRefusesHostileRows(t *testing.T) {
	evs := mkBatch(0, 2)
	frame := appendRecord(nil, 0, evs, make([]float32, 3*testDim), testDim)
	good := frame[frameHeaderSize:]
	head := len(good) - 4*3*testDim - rowsHeadBytes // offset of rows | dim
	mutate := func(f func(p []byte) []byte) []byte { return f(slices.Clone(good)) }
	for name, p := range map[string][]byte{
		"rows beyond 2 per event":     mutate(func(p []byte) []byte { le.PutUint32(p[head:], 5); return p }),
		"rows times dim past payload": mutate(func(p []byte) []byte { le.PutUint32(p[head:], 4); return p }),
		"product overflows 32 bits":   mutate(func(p []byte) []byte { le.PutUint32(p[head:], 4); le.PutUint32(p[head+4:], 1<<20); return p }),
		"dimension past the bound":    mutate(func(p []byte) []byte { le.PutUint32(p[head+4:], maxFeatLen+1); return p }),
		"fewer rows than bytes":       mutate(func(p []byte) []byte { le.PutUint32(p[head:], 2); return p }),
		"rows cut short":              good[:len(good)-4],
		"rows header cut short":       good[:head+4],
		"trailing bytes":              append(slices.Clone(good), 0, 0, 0, 0),
		"count past payload":          mutate(func(p []byte) []byte { le.PutUint32(p[8:], 1<<30); return p }),
		"feature length past payload": mutate(func(p []byte) []byte { le.PutUint32(p[recordHeadBytes+17:], 1<<19); return p }),
		"absurd feature length":       mutate(func(p []byte) []byte { le.PutUint32(p[recordHeadBytes+17:], maxFeatLen+1); return p }),
	} {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := checkRecord(p); err == nil {
				t.Errorf("%s: accepted", name)
			}
		})
		// The error value itself is the only thing a refusal may allocate.
		if allocs > 4 && !raceEnabled {
			t.Errorf("%s: refusal allocated %.0f times", name, allocs)
		}
	}
	if _, err := decodeRecord(good); err != nil {
		t.Fatalf("the unmutated record: %v", err)
	}
}

// TestDecodeAllocsPerRecord is the alloc guard on the replay side: a record
// costs three allocations — events, their features, and (first time only)
// the rows — at any batch size, not one per event.
func TestDecodeAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	for _, n := range []int{1, 200} {
		evs := mkBatch(0, n)
		payload := appendRecord(nil, 0, evs, testRows(evs), testDim)[frameHeaderSize:]
		var rows []float32
		allocs := testing.AllocsPerRun(20, func() {
			s, err := checkRecord(payload)
			if err != nil {
				t.Fatal(err)
			}
			rows = s.decode(payload, rows).Rows
		})
		if allocs > 2 {
			t.Errorf("%d events: %.0f allocations per decoded record, want 2 once the row buffer is warm", n, allocs)
		}
	}
}

// writeTestLog appends batches to a fresh log in dir and closes it,
// returning the batches for comparison.
func writeTestLog(t testing.TB, dir string, seed int64, batches, perBatch int) [][]tgraph.Event {
	t.Helper()
	l, err := Open(Options{Dir: dir, Policy: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]tgraph.Event, batches)
	for i := range out {
		out[i] = randEvents(rng, perBatch)
		if err := begin(l, out[i]).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// replayAll collects every record at/after from, checking on the way that
// each arrives with its own rows.
func replayAll(t *testing.T, l *Log, from uint64) [][]tgraph.Event {
	t.Helper()
	var got [][]tgraph.Event
	if err := l.ReplayRecords(from, func(rec Record) error {
		if rec.Dim != testDim || !floatsBitEqual(rec.Rows, testRows(rec.Events)) {
			return fmt.Errorf("record at %d arrived with %d values of dim %d that are not its rows", rec.First, len(rec.Rows), rec.Dim)
		}
		got = append(got, rec.Events)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestTornTailTruncation: cut the newest segment at EVERY byte offset past
// the last intact prefix and confirm Open recovers exactly the records
// whose frames survived whole — no panic, no lost intact record, no
// resurrected partial record.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	want := writeTestLog(t, dir, 11, 6, 5)

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, got %d", len(segs))
	}
	full, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries within the file, derived from the frames.
	bounds := []int{segHeaderSize}
	for off := segHeaderSize; off < len(full); {
		n := int(le.Uint32(full[off:]))
		off += frameHeaderSize + n
		bounds = append(bounds, off)
	}
	intactAt := func(size int) int {
		k := 0
		for k+1 < len(bounds) && bounds[k+1] <= size {
			k++
		}
		return k
	}

	for size := 0; size <= len(full); size++ {
		trimmed := full[:size]
		sub := filepath.Join(dir, "cut")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(segs[0].path)), trimmed, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: sub})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		got := replayAll(t, l, 0)
		wantK := 0
		if size >= segHeaderSize {
			wantK = intactAt(size)
		}
		if len(got) != wantK {
			t.Fatalf("size %d: recovered %d records, want %d", size, len(got), wantK)
		}
		for i := range got {
			if !eventsBitEqual(got[i], want[i]) {
				t.Fatalf("size %d: record %d mismatch", size, i)
			}
		}
		if wantN := uint64(wantK * 5); l.NextIndex() != wantN {
			t.Fatalf("size %d: next index %d, want %d", size, l.NextIndex(), wantN)
		}
		l.Close()
		if err := os.RemoveAll(sub); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailGarbageAppend: random garbage glued after the intact log is
// cut away and appends resume at the right index.
func TestTornTailGarbageAppend(t *testing.T) {
	dir := t.TempDir()
	want := writeTestLog(t, dir, 5, 4, 3)
	segs, _ := listSegments(dir)
	f, err := os.OpenFile(segs[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	junk := make([]byte, 37)
	rng.Read(junk)
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := replayAll(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	// Appends continue cleanly after the truncation.
	evs := randEvents(rng, 2)
	if err := begin(l, evs).Wait(); err != nil {
		t.Fatal(err)
	}
	if l.NextIndex() != 14 {
		t.Fatalf("next index %d, want 14", l.NextIndex())
	}
}

// TestCorruptionClassification: a bit flip in the newest segment is
// indistinguishable from a torn tail and truncates (the loss is visible as
// NextIndex falling behind the watermark); the same flip in a sealed,
// older segment is fatal at Open — acknowledged history with a hole in it
// must not be resurrected.
func TestCorruptionClassification(t *testing.T) {
	t.Run("newest segment truncates", func(t *testing.T) {
		dir := t.TempDir()
		writeTestLog(t, dir, 3, 5, 4)
		segs, _ := listSegments(dir)
		data, _ := os.ReadFile(segs[0].path)
		data[segHeaderSize+frameHeaderSize+3] ^= 0x40 // record 0's payload
		if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		// Everything from the flipped record on is cut away; the shortfall
		// against a checkpoint watermark of, say, 8 is visible here.
		if l.NextIndex() != 0 {
			t.Fatalf("durable end %d, want 0 after truncation at record 0", l.NextIndex())
		}
	})
	t.Run("sealed segment is fatal", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if err := begin(l, mkBatch(i*5, 3)).Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if st := l.Stats(); st.Segments < 2 {
			t.Fatalf("need ≥2 segments, got %d", st.Segments)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := listSegments(dir)
		data, _ := os.ReadFile(segs[0].path)
		data[segHeaderSize+frameHeaderSize+3] ^= 0x40
		if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir}); err == nil {
			t.Fatal("Open across a corrupted sealed segment should fail")
		}
	})
}

// FuzzFrame: the segment scanner must never panic and must classify any
// byte soup as some mix of intact records, a torn tail, or a fatal error.
// The same bytes shipped to a follower in two pieces, split at an offset
// the input picks, with a Poll after each piece, must deliver exactly what
// one Poll over the whole file delivers, error included: a standby may
// resume at any byte.
func FuzzFrame(f *testing.F) {
	dir := f.TempDir()
	writeTestLog(f, dir, 21, 3, 4)
	segs, _ := listSegments(dir)
	good, _ := os.ReadFile(segs[0].path)
	f.Add(good, uint32(len(good)/2))
	f.Add(good[:len(good)-5], uint32(segHeaderSize+3))
	f.Add([]byte(segMagic), uint32(2))
	f.Add([]byte{}, uint32(0))
	scratch, err := os.MkdirTemp("", "walfuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(scratch) })
	var ctr atomic.Int64
	f.Fuzz(func(t *testing.T, data []byte, split uint32) {
		run := filepath.Join(scratch, fmt.Sprint(ctr.Add(1)))
		defer os.RemoveAll(run)
		whole, pieces := DirDest{Dir: filepath.Join(run, "whole")}, DirDest{Dir: filepath.Join(run, "pieces")}
		if err := whole.WriteChunk(segmentName(0), 0, data); err != nil {
			t.Skip()
		}
		end, torn, err := scanSegment(filepath.Join(whole.Dir, segmentName(0)), 0, 0, func(recordShape, []byte) error { return nil })
		if err == nil && !torn && end < segHeaderSize {
			t.Fatalf("intact scan ended at %d, before the header", end)
		}
		if int64(len(data)) < end {
			t.Fatalf("scan end %d past file size %d", end, len(data))
		}

		one, err := OpenFollower(whole.Dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := pollRecords(one)
		cut := int(split % uint32(len(data)+1))
		if err := pieces.WriteChunk(segmentName(0), 0, data[:cut]); err != nil {
			t.Skip()
		}
		two, err := OpenFollower(pieces.Dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := pollRecords(two)
		if err := pieces.WriteChunk(segmentName(0), int64(cut), data[cut:]); err != nil {
			t.Skip()
		}
		rest, gotErr := pollRecords(two)
		got = append(got, rest...)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("split at %d: polls ended with %v, one poll with %v", cut, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("split at %d: polls delivered %d records, one poll %d", cut, len(got), len(want))
		}
		for i := range got {
			if got[i].First != want[i].First || got[i].Dim != want[i].Dim ||
				!eventsBitEqual(got[i].Events, want[i].Events) || !floatsBitEqual(got[i].Rows, want[i].Rows) {
				t.Fatalf("split at %d: record %d differs from the one-poll delivery", cut, i)
			}
		}
	})
}

// pollRecords runs one Poll of fl and returns the records it delivered,
// rows copied out of the scanner's scratch, and the error it ended with.
func pollRecords(fl *Follower) ([]Record, error) {
	var recs []Record
	_, err := fl.Poll(func(rec Record) error {
		rec.Rows = slices.Clone(rec.Rows)
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}
