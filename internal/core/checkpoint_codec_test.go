package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

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
// parameters and watermark.
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
	s, err := m.checkCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	dim := m.Cfg.EdgeDim
	mailOff := s.stateOff + s.numNodes*(4*dim+ckptNodeBytes)
	c := ckptCursor{b: b, o: mailOff}
	for n := 0; n < s.numNodes; n++ {
		c.take(int(c.u32()) * (ckptMailBytes + 4*dim))
	}
	eventsOff := c.o
	return []int{4, 8, s.stateOff - 8, s.stateOff, s.stateOff + 4*dim + ckptNodeBytes, mailOff, mailOff + 4, eventsOff, eventsOff + 8, eventsOff + 8 + ckptEventBytes},
		s.stateOff - 4, mailOff
}

// TestRefusedCheckpointLeavesModelUntouched: a load either succeeds or
// changes nothing. A valid checkpoint is cut at every section boundary, one
// byte either side of each, and at 200 random offsets; one copy claims
// dim+1, one gives node 0 slots+1 mails, one carries a trailing byte. Every
// load must fail and leave parameter version and fingerprint, RuntimeDigest,
// graph watermark and evictor as they were. (The loader this replaced
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
		if err := tgt.LoadCheckpoint(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: load succeeded", name)
		}
		if after := observe(tgt); after != before {
			t.Fatalf("%s: refused load changed the model:\n before %+v\n after  %+v", name, before, after)
		}
	}
	if err := tgt.LoadCheckpoint(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the uncut file: %v", err)
	}
	if after, want := observe(tgt), observe(src); after.digest != want.digest || after.fingerprint != want.fingerprint || after.paramVersion == before.paramVersion {
		t.Fatalf("the uncut file did not load: %+v, saved %+v", after, want)
	}
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
	graph := testing.AllocsPerRun(5, func() {
		g.Reset(cfg.NumNodes)
		for i := range events {
			g.AddEvent(events[i])
		}
	})
	publish := testing.AllocsPerRun(5, m.publishOwn)
	withMail := float64(m.Mailbox().Occupancy().NodesWithMail)
	// State rows come in slabs: at most one partly carved slab, and past
	// it one slab per eight rows is generous for any slab size the store
	// might pick — and far from one allocation per row.
	st := m.State().Occupancy()
	slabs := float64(1 + st.TouchedNodes/8)
	arenas := float64(len(events)*cfg.EdgeDim/ckptArenaFloats + 1)
	if bound := withMail + slabs + arenas + graph + publish + 48; load > bound {
		t.Fatalf("load allocated %.0f times; bound %.0f = %.0f nodes with mail + %.0f state slabs (bound) + %.0f arenas + %.0f in the graph + %.0f to publish + 48",
			load, bound, withMail, slabs, arenas, graph, publish)
	}
	t.Logf("%d-byte checkpoint, %d events: %.0f allocations (%.0f blocks, %d slabs for %d state rows, %.0f graph, %.0f publish)",
		len(b), len(events), load, withMail, st.Slabs, st.TouchedNodes, graph, publish)
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
		cut := testing.AllocsPerRun(5, func() { m.runtimeCut() })
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
// if it returns an error the model is untouched. The seed corpus is written
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
		if got, limit := ms1.TotalAlloc-ms0.TotalAlloc, uint64(64<<10+64*len(b)); got > limit {
			t.Fatalf("a %d-byte input allocated %d bytes (limit %d), err = %v", len(b), got, limit, err)
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
