package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unsafe"

	"apan/internal/dataset"
	"apan/internal/nn"
	"apan/internal/tensor"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

// serveGrowing is serveLogged for a stream that names nodes the model has
// not admitted yet: it grows the ID space first, as serving's admission does.
func serveGrowing(m *Model, events []tgraph.Event, batch int) {
	for lo := 0; lo < len(events); lo += batch {
		b := events[lo:min(lo+batch, len(events))]
		maxID := tgraph.NodeID(-1)
		for i := range b {
			maxID = max(maxID, b[i].Src, b[i].Dst)
		}
		m.EnsureNodes(int(maxID) + 1)
		serveLogged(m, [][]tgraph.Event{b})
	}
}

// ckptObservables is everything a caller can see of what a checkpoint load
// replaces: the published parameters, the streaming runtime, the graph
// watermark and the evictor.
type ckptObservables struct {
	paramVersion, fingerprint, digest uint64
	graphEvents                       int
	eviction                          EvictionStats
}

func observe(m *Model) ckptObservables {
	ev, _ := m.EvictionStats()
	return ckptObservables{m.ParamVersion(), m.CurrentParams().Fingerprint(), m.RuntimeDigest(), m.GraphEvents(), ev}
}

func saveBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQuickCheckpointCodecMatchesReference holds the byte codec to the
// reader and writer it replaced (checkpoint_ref_test.go) over random streams
// and configurations — node growth past the configured ID space, eviction
// with re-admission, the key-value ψ, and the empty model (no events, no
// mail): the new writer's bytes are the reference writer's, and either
// writer's file through the other's loader recovers the same runtime,
// parameters and watermark, and re-saves to the same bytes — which covers
// the rebuilt graph's contents, not just its event count.
func TestQuickCheckpointCodecMatchesReference(t *testing.T) {
	d := tinyData(5)
	seen := map[string]int{"grew": 0, "evicted": 0, "readmitted": 0, "key-value": 0, "empty": 0}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := tinyConfig(d.NumNodes)
		cfg.Seed = seed
		if rng.Intn(2) == 0 {
			cfg.NumNodes = 8 // the stream grows the model far past this
		}
		if rng.Intn(2) == 0 {
			cfg.EvictMaxNodes = 6 + rng.Intn(30)
		}
		cfg.KeyValueMailbox = rng.Intn(3) == 0
		events := 0
		if rng.Intn(6) != 0 {
			events = 1 + rng.Intn(500)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lo := rng.Intn(len(d.Events) - events)
		half := events / 2
		serveGrowing(m, d.Events[lo:lo+half], 1+rng.Intn(40))
		serveGrowing(m, d.Events[lo+half:lo+events], 1+rng.Intn(40))

		got := saveBytes(t, m)
		var ref bytes.Buffer
		refSaveCheckpoint(m, &ref)
		if !bytes.Equal(got, ref.Bytes()) {
			t.Logf("seed %d: writer produced %d bytes, reference %d, first difference at %d", seed, len(got), ref.Len(), firstDiff(got, ref.Bytes()))
			return false
		}

		want := observe(m)
		fresh := cfg
		fresh.Seed = seed + 1 // other initial weights, so the fingerprint has to come from the file
		viaNew, err := New(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := viaNew.LoadCheckpoint(bytes.NewReader(ref.Bytes())); err != nil {
			t.Logf("seed %d: loader refused the reference writer's file: %v", seed, err)
			return false
		}
		viaRef, err := New(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := refLoadCheckpoint(viaRef, bytes.NewReader(got)); err != nil {
			t.Logf("seed %d: reference loader refused the writer's file: %v", seed, err)
			return false
		}
		for name, r := range map[string]*Model{"loader": viaNew, "reference loader": viaRef} {
			o := observe(r)
			if o.digest != want.digest || o.fingerprint != want.fingerprint || o.graphEvents != want.graphEvents {
				t.Logf("seed %d, %s: digest %016x fingerprint %016x events %d, saved model %016x %016x %d", seed, name,
					o.digest, o.fingerprint, o.graphEvents, want.digest, want.fingerprint, want.graphEvents)
				return false
			}
			if b := saveBytes(t, r); !bytes.Equal(b, got) {
				t.Logf("seed %d, %s: the loaded model re-saves %d bytes, first difference at %d of the file's %d", seed, name, len(b), firstDiff(b, got), len(got))
				return false
			}
		}
		for class, hit := range map[string]bool{"grew": m.NumNodes() > cfg.NumNodes, "evicted": want.eviction.Evicted > 0,
			"readmitted": want.eviction.Readmitted > 0, "key-value": cfg.KeyValueMailbox,
			"empty": events == 0} {
			if hit {
				seen[class]++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	for _, n := range seen {
		if n == 0 {
			t.Fatalf("generator missed a configuration class: %v", seen)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// ckptSections walks a valid checkpoint of a model shaped like m and returns
// the offset at which each section (and each header inside one) begins, plus
// the offsets of the dim field and of node 0's mail count.
func ckptSections(t testing.TB, m *Model, b []byte) (bounds []int, dimOff, countOff int) {
	t.Helper()
	params, err := nn.CheckParams(b[8:], m.Params())
	if err != nil {
		t.Fatal(err)
	}
	stateOff, dim := 8+params+8, m.Cfg.EdgeDim
	numNodes := int(le.Uint32(b[stateOff-8:]))
	mailOff := stateOff + numNodes*(4*dim+ckptNodeBytes)
	eventsOff := mailOff
	for n := 0; n < numNodes; n++ {
		eventsOff += 4 + int(le.Uint32(b[eventsOff:]))*(ckptMailBytes+4*dim)
	}
	return []int{4, 8, stateOff - 8, stateOff, stateOff + 4*dim + ckptNodeBytes, mailOff, mailOff + 4, eventsOff, eventsOff + 8, eventsOff + 8 + ckptEventBytes},
		stateOff - 4, mailOff
}

// TestRefusedCheckpointLeavesModelUntouched: a load either succeeds or
// changes nothing. A valid checkpoint is cut at every section boundary, one
// byte either side of each, and at 200 random offsets; one copy claims
// dim+1, one gives node 0 slots+1 mails, one carries a trailing byte. Every
// load must fail and leave parameter version and fingerprint, RuntimeDigest,
// graph watermark and evictor as they were, and so must every load of the
// same bytes through a short reader; the uncut file loads the same through
// each of them. (The loader this replaced
// published the file's parameters and emptied the stores before reading the
// body, so every one of these left new weights serving over a cold model.)
func TestRefusedCheckpointLeavesModelUntouched(t *testing.T) {
	d := tinyData(9)
	cfg := tinyConfig(d.NumNodes)
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveGrowing(src, d.Events[:300], 20)
	valid := saveBytes(t, src)

	cfg.Seed, cfg.EvictMaxNodes = 2, 25
	tgt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveGrowing(tgt, d.Events[300:500], 20)
	before := observe(tgt)
	if before.eviction.Tracked == 0 || before.graphEvents != 200 {
		t.Fatalf("target model is not warm: %+v", before)
	}

	bounds, dimOff, countOff := ckptSections(t, src, valid)
	files := map[string][]byte{}
	for _, at := range bounds {
		for _, cut := range []int{at - 1, at, at + 1} {
			files[fmt.Sprintf("cut at %d (boundary %d)", cut, at)] = valid[:cut]
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		cut := rng.Intn(len(valid))
		files[fmt.Sprintf("cut at %d", cut)] = valid[:cut]
	}
	patch := func(off int, v uint32) []byte {
		b := append([]byte(nil), valid...)
		le.PutUint32(b[off:], v)
		return b
	}
	files["dim+1"] = patch(dimOff, uint32(cfg.EdgeDim+1))
	files["slots+1 mails"] = patch(countOff, uint32(cfg.Slots+1))
	files["trailing byte"] = append(append([]byte(nil), valid...), 0)

	for name, b := range files {
		err := tgt.LoadCheckpoint(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("%s: load succeeded", name)
		}
		if after := observe(tgt); after != before {
			t.Fatalf("%s: refused load changed the model:\n before %+v\n after  %+v", name, before, after)
		}
		loadThroughShortReaders(t, tgt, b, err)
	}
	if err := tgt.LoadCheckpoint(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the uncut file: %v", err)
	}
	loadThroughShortReaders(t, tgt, valid, nil)
	if after, want := observe(tgt), observe(src); after.digest != want.digest || after.fingerprint != want.fingerprint || after.paramVersion == before.paramVersion {
		t.Fatalf("the uncut file did not load: %+v, saved %+v", after, want)
	}
}

// shortReaders hand a load its input in pieces a reader may legally use:
// one byte per Read, half of each request, the last bytes together with
// io.EOF.
var shortReaders = map[string]func(io.Reader) io.Reader{
	"OneByteReader": iotest.OneByteReader,
	"HalfReader":    iotest.HalfReader,
	"DataErrReader": iotest.DataErrReader,
}

// loadThroughShortReaders loads b into m through each short reader, right
// after a load of the whole bytes that returned wantErr, and requires the
// same outcome: wantErr's message with m untouched, or success at the
// digest and fingerprint the whole-bytes load left. It returns the most
// bytes one of these loads allocated.
func loadThroughShortReaders(t testing.TB, m *Model, b []byte, wantErr error) (most uint64) {
	t.Helper()
	want := observe(m)
	for name, short := range shortReaders {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := m.LoadCheckpoint(short(bytes.NewReader(b)))
		runtime.ReadMemStats(&ms1)
		most = max(most, ms1.TotalAlloc-ms0.TotalAlloc)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s over %d bytes: err %v, the whole bytes gave %v", name, len(b), err, wantErr)
		}
		got := observe(m)
		if err != nil && got != want {
			t.Fatalf("%s: refused load (%v) changed the model:\n before %+v\n after  %+v", name, err, want, got)
		}
		if err == nil && (got.digest != want.digest || got.fingerprint != want.fingerprint) {
			t.Fatalf("%s: loaded digest %016x fingerprint %016x, the whole bytes %016x %016x", name, got.digest, got.fingerprint, want.digest, want.fingerprint)
		}
	}
	return most
}

// TestCheckpointCountsCannotSizeAllocations: a header that claims the
// largest node or event count its field can hold, over a body of no bytes,
// is refused by arithmetic on the file's length — no growth, no allocation
// sized by the claim (ROADMAP 8b).
func TestCheckpointCountsCannotSizeAllocations(t *testing.T) {
	m, err := New(tinyConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	valid := saveBytes(t, m)
	bounds, _, _ := ckptSections(t, m, valid)
	storeHead, eventCount := bounds[2], bounds[7]

	nodes := append([]byte(nil), valid[:storeHead+8]...)
	le.PutUint32(nodes[storeHead:], 1<<20) // passes the grow bound, needs 77 MB of rows
	events := append([]byte(nil), valid[:eventCount+8]...)
	le.PutUint64(events[eventCount:], 1<<40)
	for name, b := range map[string][]byte{"node count": nodes, "event count": events} {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := m.loadCheckpoint(b)
		runtime.ReadMemStats(&ms1)
		if err == nil {
			t.Fatalf("%s: load succeeded", name)
		}
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 64<<10 {
			t.Fatalf("%s: refusing a %d-byte file allocated %d bytes", name, len(b), got)
		}
		if m.NumNodes() != 8 {
			t.Fatalf("%s: refused load grew the model to %d nodes", name, m.NumNodes())
		}
	}
}

// TestLoadCheckpointAllocs: a load allocates per node with mail (its block),
// per slab of state rows, per arena of event features, whatever the graph
// itself allocates to take the events in, and a constant — not per state
// row, per mail, per scalar or per event (the reflection reader: 139,302 at
// the benchmark's size).
func TestLoadCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	d := tinyData(3)
	cfg := tinyConfig(d.NumNodes)
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveGrowing(src, d.Events[:900], 20)
	b := saveBytes(t, src)
	events := src.DB().G.EventLog()

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	load := testing.AllocsPerRun(5, func() {
		if err := m.loadCheckpoint(b); err != nil {
			t.Fatal(err)
		}
	})
	g := tgraph.New(cfg.NumNodes)
	graph := testing.AllocsPerRun(5, func() { g.Reset(cfg.NumNodes, events) })
	publish := testing.AllocsPerRun(5, m.publishOwn)
	// Records come in slabs of two allocations (mail times, floats): at
	// most one partly carved slab, and past it one slab per eight records
	// is generous for any slab size the store might pick — and far from
	// one allocation per node.
	occ := m.State().Occupancy()
	slabs := float64(2 * (1 + occ.Records/8))
	arenas := float64(len(events)*cfg.EdgeDim/ckptArenaFloats + 1)
	if bound := slabs + arenas + graph + publish + 48; load > bound {
		t.Fatalf("load allocated %.0f times; bound %.0f = %.0f for record slabs (bound) + %.0f arenas + %.0f in the graph + %.0f to publish + 48",
			load, bound, slabs, arenas, graph, publish)
	}
	t.Logf("%d-byte checkpoint, %d events: %.0f allocations (%d slabs for %d records, %.0f graph, %.0f publish)",
		len(b), len(events), load, occ.Slabs, occ.Records, graph, publish)
}

// TestLoadCheckpointFileHoldsNoFileSizedBuffer: LoadCheckpointFile of an
// S-byte checkpoint allocates the store, feature arenas, events and
// parameters it fills, what the graph allocates to take the events in, and
// one read buffer — not a buffer of the file's size. Events keep their 172
// features, so S (about 3.5 MB, mostly events) dwarfs the buffer and the
// slack, and a loader that reads the whole file first exceeds the bound by
// most of S.
func TestLoadCheckpointFileHoldsNoFileSizedBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	d := dataset.Wikipedia(dataset.Config{Scale: 0.03, Seed: 3, NoDrift: true})
	cfg := tinyConfig(d.NumNodes)
	cfg.EdgeDim = d.EdgeDim
	src := mustNew(t, cfg)
	serveGrowing(src, d.Events[:4000], 200)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if _, err := src.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	events := src.DB().G.EventLog()

	m := mustNew(t, cfg)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := m.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	load := ms1.TotalAlloc - ms0.TotalAlloc

	allocated := func(f func()) uint64 {
		runtime.ReadMemStats(&ms0)
		f()
		runtime.ReadMemStats(&ms1)
		return ms1.TotalAlloc - ms0.TotalAlloc
	}
	g := tgraph.New(cfg.NumNodes)
	graph := allocated(func() { g.Reset(cfg.NumNodes, events) })
	publish := allocated(m.publishOwn) // module structure: no tensor changed since the load's publish
	var params uint64                  // the staged blob, and the published copy of the loaded values
	for _, p := range m.Params() {
		params += 2 * (8 + 4*uint64(len(p.W.Data)))
	}
	occ := m.State().Occupancy()
	nodes := uint64(m.NumNodes())
	// The index (4 B/node) and the slab list (under 1 KB per slab) grow by
	// doubling while the rows arrive.
	index := 2 * (4*nodes + uint64(occ.Slabs)<<10)
	stores := uint64(occ.Bytes) + index
	feats := uint64(len(events)) * (uint64(unsafe.Sizeof(tgraph.Event{})) + 4*uint64(cfg.EdgeDim))
	buffer, slack := uint64(ckptSpillBytes), uint64(4*ckptArenaFloats+64<<10) // one arena's overshoot, small staging
	if bound := stores + feats + params + graph + publish + buffer + slack; load > bound {
		t.Fatalf("loading a %d-byte checkpoint allocated %d bytes; bound %d = %d stores + %d events + %d parameters + %d graph + %d publish + %d buffer + %d slack",
			fi.Size(), load, bound, stores, feats, params, graph, publish, buffer, slack)
	}
	t.Logf("%d-byte checkpoint: %d bytes allocated (%d stores, %d events, %d parameters, %d graph, %d publish)", fi.Size(), load, stores, feats, params, graph, publish)
}

// TestSaveCheckpointAllocs: past the cut's own clone, encoding a checkpoint
// allocates a constant — one buffer, the mailbox readout scratch — whatever
// the node and event counts.
func TestSaveCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	d := tinyData(3)
	for _, n := range []int{40, 1200} {
		m, err := New(tinyConfig(d.NumNodes))
		if err != nil {
			t.Fatal(err)
		}
		serveGrowing(m, d.Events[:n], 20)
		cut := testing.AllocsPerRun(5, func() { m.SnapshotRuntime() })
		save := testing.AllocsPerRun(5, func() {
			if err := m.SaveCheckpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if save-cut > 8 {
			t.Fatalf("%d events: encoding allocated %.0f times beyond the cut's %.0f, want ≤ 8", n, save-cut, cut)
		}
	}
}

// TestReplayBatchSteadyStateAllocs: replaying a record allocates nothing of
// its own — the plan is the model's — so a replayed batch costs what the
// same batch costs serving's applier.
func TestReplayBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	d := tinyData(3)
	newWarm := func() *Model {
		m, err := New(tinyConfig(d.NumNodes))
		if err != nil {
			t.Fatal(err)
		}
		serveGrowing(m, d.Events[:400], 20)
		return m
	}
	batch := d.Events[400:440]
	a, b := newWarm(), newWarm()
	var p Pending
	a.Score(batch, &p)
	rec := wal.Record{Events: batch, Rows: p.rows, Dim: a.Cfg.EdgeDim}
	apply := testing.AllocsPerRun(50, func() { a.ApplyPending(&p) })
	replay := testing.AllocsPerRun(50, func() {
		if err := b.ReplayBatch(rec); err != nil {
			t.Fatal(err)
		}
	})
	if replay > apply {
		t.Fatalf("ReplayBatch allocated %.2f times per record, ApplyPending of the same batch %.2f", replay, apply)
	}
}

// fuzzConfig is the smallest model with every section populated: a seed
// checkpoint of a few KB, so the fuzzer spends its time mutating, not
// minimizing.
var fuzzConfig = Config{NumNodes: 6, EdgeDim: 4, Slots: 2, Neighbors: 2, Hops: 2, Heads: 2, Hidden: 4, BatchSize: 4, EvictMaxNodes: 5}

func fuzzEvents(base int32, n int) []tgraph.Event {
	evs := make([]tgraph.Event, n)
	for i := range evs {
		evs[i] = tgraph.Event{Src: (base + int32(i)) % 6, Dst: (base + 2*int32(i) + 1) % 6, Time: float64(i), Feat: []float32{1, -2, 0.5, float32(i)}, Label: int8(i%3) - 1}
	}
	return evs
}

// FuzzLoadCheckpoint: whatever the bytes, LoadCheckpoint does not panic,
// allocates no more than a fixed multiple of their length (a node's one mail
// can cost a whole block, an event its graph entries — 64× covers both), and
// if it returns an error the model is untouched. Read in short pieces (see
// loadThroughShortReaders) the same bytes load the same way, within the
// same allocation bound. The seed corpus is written
// from a small warmed model here, so it is always the current layout.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := fuzzConfig
	src := mustNew(f, cfg)
	serveGrowing(src, fuzzEvents(0, 14), 4)
	valid := saveBytes(f, src)
	bounds, dimOff, countOff := ckptSections(f, src, valid)
	f.Add(valid)
	for _, at := range bounds {
		f.Add(valid[:at])
	}
	for _, off := range []int{dimOff, countOff, bounds[2], bounds[7], bounds[8]} {
		b := append([]byte(nil), valid...)
		b[off] ^= 0x81
		f.Add(b)
	}
	cfg.Seed = 3
	m := mustNew(f, cfg)
	serveGrowing(m, fuzzEvents(3, 9), 4)
	f.Fuzz(func(t *testing.T, b []byte) {
		before := observe(m)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := m.LoadCheckpoint(bytes.NewReader(b))
		runtime.ReadMemStats(&ms1)
		limit := uint64(64<<10 + 64*len(b))
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > limit {
			t.Fatalf("a %d-byte input allocated %d bytes (limit %d), err = %v", len(b), got, limit, err)
		}
		if got := loadThroughShortReaders(t, m, b, err); got > limit {
			t.Fatalf("a %d-byte input read in short pieces allocated %d bytes (limit %d), err = %v", len(b), got, limit, err)
		}
		if err != nil && observe(m) != before {
			t.Fatalf("refused load (%v) changed the model", err)
		}
	})
}

func mustNew(t testing.TB, cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMailOnlyNodesEncodeCold pins the encoding of nodes that get mail but
// no Set. Under a small eviction budget, evicted nodes later receive mail as
// k-hop peers without being endpoints, so their records are carved by a
// delivery, or reused from the free list after another node's ClearNode.
// The checkpoint's state section must read each such node as a zero row,
// time 0, not touched, and its mail section must list the node's mails.
// Loading the file into a fresh model and saving again gives the same bytes.
func TestMailOnlyNodesEncodeCold(t *testing.T) {
	d := tinyData(5)
	cfg := tinyConfig(d.NumNodes)
	cfg.EvictMaxNodes = 8
	m := mustNew(t, cfg)
	applyEvents(t, m, d.Events[:600], 10)
	st := m.State()
	var mailOnly []int32
	for n := int32(0); n < int32(m.NumNodes()); n++ {
		if !st.Touched(n) && st.Len(n) > 0 {
			mailOnly = append(mailOnly, n)
		}
	}
	if ev, _ := m.EvictionStats(); len(mailOnly) == 0 || ev.Evicted == 0 {
		t.Fatalf("%d mail-only nodes after %d evictions: the stream no longer exercises the case", len(mailOnly), ev.Evicted)
	} else {
		t.Logf("%d mail-only nodes after %d evictions", len(mailOnly), ev.Evicted)
	}

	b := saveBytes(t, m)
	dim, slots := cfg.EdgeDim, cfg.Slots
	off := 8 + 12 // magic | version, then the parameter blob's header
	for _, p := range m.Params() {
		off += 8 + 4*len(p.W.Data)
	}
	numNodes := int(le.Uint32(b[off:]))
	off += 8
	state := func(n int32) []byte { return b[off+int(n)*(4*dim+ckptNodeBytes):][:4*dim+ckptNodeBytes] }
	mails := make([]float32, slots*dim)
	ts := make([]float64, slots)
	mailAt := off + numNodes*(4*dim+ckptNodeBytes)
	next := 0
	for n := int32(0); n < int32(numNodes); n++ {
		count := int(le.Uint32(b[mailAt:]))
		mailAt += 4
		if c := st.ReadSorted(n, mails, ts); c != count {
			t.Fatalf("node %d: %d mails in the file, %d in the store", n, count, c)
		}
		for i := 0; i < count; i++ {
			at, row := math.Float64frombits(le.Uint64(b[mailAt:])), b[mailAt+8:][:4*dim]
			mailAt += 8 + 4*dim
			if at != ts[i] || !bytes.Equal(row, tensor.AppendLE(nil, mails[i*dim:(i+1)*dim])) {
				t.Fatalf("node %d: mail %d encoded at %v as %x, store has %v at %v", n, i, at, row, mails[i*dim:(i+1)*dim], ts[i])
			}
		}
		if next < len(mailOnly) && mailOnly[next] == n {
			next++
			if count == 0 || !bytes.Equal(state(n), make([]byte, 4*dim+ckptNodeBytes)) {
				t.Fatalf("mail-only node %d: %d mails, state entry %x; want a zero row, time 0, not touched", n, count, state(n))
			}
		}
	}

	fresh := mustNew(t, cfg)
	if err := fresh.loadCheckpoint(b); err != nil {
		t.Fatal(err)
	}
	for _, n := range mailOnly {
		if fresh.State().Touched(n) || fresh.State().Len(n) != st.Len(n) {
			t.Fatalf("mail-only node %d loads touched=%v with %d mails", n, fresh.State().Touched(n), fresh.State().Len(n))
		}
	}
	if again := saveBytes(t, fresh); !bytes.Equal(again, b) {
		t.Fatalf("load and save changed the checkpoint: %d bytes, then %d", len(b), len(again))
	}
}
