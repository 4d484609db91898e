package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"
	"time"

	"apan/internal/gdb"
	"apan/internal/state"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// refKHop is the per-event traversal scratch propScratch carried before the
// frontier expansion replaced it.
type refKHop struct {
	khop  tgraph.KHopScratch
	seeds [2]tgraph.NodeID
}

// referenceProcessBatch is ProcessBatch as it was before frontier batching,
// kept as the oracle for it: one graph insert and one k-hop traversal per
// event, interleaved. The store's own traversal stands in for the deleted
// gdb.DB per-traversal gather, whose accounting — one query per frontier
// node, the hop's items — is returned for comparison with the frontier
// path's gdb.DB counters.
func referenceProcessBatch(p *Propagator, k *refKHop, events []tgraph.Event, zOf *state.Sharded) (queries, items int64) {
	if len(events) == 0 {
		return 0, 0
	}
	s, _ := p.scratch.Get().(*propScratch)
	if s == nil {
		s = &propScratch{}
	}
	if s.inbox == nil {
		s.inbox = make(map[tgraph.NodeID]*mailAccum, 4*len(events))
	}
	if cap(s.mail) < p.cfg.EdgeDim {
		s.mail = make([]float32, p.cfg.EdgeDim)
		s.zScratch = make([]float32, p.cfg.EdgeDim)
	}
	mail := s.mail[:p.cfg.EdgeDim]
	zScratch := s.zScratch[:p.cfg.EdgeDim]

	for _, ev := range events {
		// Graph write first so later events in the batch see earlier ones.
		p.db.AddEvent(ev)

		// One mail buffer serves every event: CopyTo overwrites it fully,
		// and deliver accumulates copies, never the buffer itself.
		zOf.CopyTo(ev.Src, mail)
		tensor.Axpy(mail, ev.Feat, 1)
		zOf.CopyTo(ev.Dst, zScratch)
		tensor.Axpy(mail, zScratch, 1)

		// Hop 0: the interactive nodes themselves.
		p.deliver(s, ev.Src, mail, ev.Time)
		if ev.Dst != ev.Src {
			p.deliver(s, ev.Dst, mail, ev.Time)
		}
		// Hops 1..k−1: neighbors by most-recent sampling, strictly before t,
		// so the mail travels along pre-existing temporal edges.
		if p.cfg.Hops > 1 {
			k.seeds[0], k.seeds[1] = ev.Src, ev.Dst
			hops := p.db.G.KHopMostRecentInto(&k.khop, k.seeds[:], ev.Time, p.cfg.Neighbors, p.cfg.Hops-1)
			frontier := len(k.seeds)
			for _, level := range hops {
				queries += int64(frontier)
				items += int64(len(level))
				frontier = len(level)
				for _, inc := range level {
					p.deliver(s, inc.Peer, mail, ev.Time)
				}
			}
		}
	}

	for n, acc := range s.inbox {
		if p.cfg.Reduce != ReduceLatest && acc.n > 1 {
			inv := 1 / float32(acc.n)
			for i := range acc.sum {
				acc.sum[i] *= inv
			}
		}
		p.mbox.Deliver(n, acc.sum, acc.ts)
		s.freelist = append(s.freelist, acc)
	}
	p.mailsDelivered.Add(int64(len(s.inbox)))
	clear(s.inbox)
	p.scratch.Put(s)
	return queries, items
}

// propCase is one randomized propagation workload: a config and a stream of
// batches, each preceded by the node count it needs.
type propCase struct {
	cfg     Config
	order   string
	batches [][]tgraph.Event
	nodes   []int
}

// streamOrders are the timestamp shapes propCase draws from.
var streamOrders = []string{"sorted", "shuffled", "decreasing", "negative", "random", "nan"}

// genPropCase draws a config (Hops 1–3, Neighbors 1–10, both ψ rules, both
// graph backends) and 1–4 batches of 1–300 events whose times follow one of
// streamOrders, with duplicate times, self-loops and node IDs that grow.
func genPropCase(rng *rand.Rand) propCase {
	base := 4 + rng.Intn(40)
	cfg := tinyConfig(base)
	cfg.EdgeDim = 8
	cfg.Hops = 1 + rng.Intn(3)
	cfg.Neighbors = 1 + rng.Intn(10)
	cfg.Slots = 1 + rng.Intn(4)
	cfg.Reduce = MailReduce(rng.Intn(2))
	cfg.GraphBackend = allBackends[rng.Intn(len(allBackends))]
	cfg.Shards = 1 << rng.Intn(3)
	c := propCase{cfg: cfg, order: streamOrders[rng.Intn(len(streamOrders))]}

	nodes, now := base, 0.0
	if c.order == "negative" {
		now = -50
	}
	for b, nb := 0, 1+rng.Intn(4); b < nb; b++ {
		n := 1 + rng.Intn(300)
		if rng.Intn(3) == 0 {
			nodes += 1 + rng.Intn(20) // admit unseen IDs with this batch
		}
		batch := make([]tgraph.Event, n)
		for i := range batch {
			src := tgraph.NodeID(rng.Intn(nodes))
			dst := tgraph.NodeID(rng.Intn(nodes))
			if rng.Intn(10) == 0 {
				dst = src
			}
			feat := make([]float32, cfg.EdgeDim)
			for j := range feat {
				feat[j] = float32(rng.NormFloat64())
			}
			if rng.Intn(4) != 0 { // else a duplicate of the previous time
				now += rng.Float64()
			}
			batch[i] = tgraph.Event{Src: src, Dst: dst, Time: now, Feat: feat, Label: int8(rng.Intn(2))}
		}
		switch c.order {
		case "shuffled": // local disorder: swap near neighbors
			for i := range batch {
				if j := i + rng.Intn(4); j < n && rng.Intn(2) == 0 {
					batch[i].Time, batch[j].Time = batch[j].Time, batch[i].Time
				}
			}
		case "decreasing":
			for i := range batch {
				batch[i].Time = -now - float64(i)
			}
		case "random":
			for i := range batch {
				batch[i].Time = float64(rng.Intn(20)) - 5
			}
		case "nan":
			for i := range batch {
				if rng.Intn(15) == 0 {
					batch[i].Time = math.NaN()
				}
			}
		}
		c.batches = append(c.batches, batch)
		c.nodes = append(c.nodes, nodes)
	}
	return c
}

// twinModels builds two identical models for cfg.
func twinModels(t testing.TB, cfg Config) (*Model, *Model) {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// seedStates gives every endpoint of batch the same random z on both models,
// as the apply span's state write would before propagating.
func seedStates(rng *rand.Rand, batch []tgraph.Event, models ...*Model) {
	z := make([]float32, models[0].Cfg.EdgeDim)
	for _, ev := range batch {
		for _, n := range [2]tgraph.NodeID{ev.Src, ev.Dst} {
			for j := range z {
				z[j] = float32(rng.NormFloat64())
			}
			for _, m := range models {
				m.st.Set(n, z, ev.Time)
			}
		}
	}
}

// samePropagation compares, bit for bit, what propagation leaves behind:
// every node's timestamp-sorted mails, the graph's event log and the
// delivery count.
func samePropagation(got, want *Model) error {
	if g, w := got.prop.MailsDelivered(), want.prop.MailsDelivered(); g != w {
		return fmt.Errorf("MailsDelivered %d, reference %d", g, w)
	}
	slots, dim := got.mbox.Slots(), got.mbox.Dim()
	gm, wm := make([]float32, slots*dim), make([]float32, slots*dim)
	gt, wt := make([]float64, slots), make([]float64, slots)
	for n := 0; n < got.mbox.NumNodes(); n++ {
		gc := got.mbox.ReadSorted(int32(n), gm, gt)
		wc := want.mbox.ReadSorted(int32(n), wm, wt)
		if gc != wc {
			return fmt.Errorf("node %d: %d mails, reference %d", n, gc, wc)
		}
		for i := 0; i < gc; i++ {
			if math.Float64bits(gt[i]) != math.Float64bits(wt[i]) {
				return fmt.Errorf("node %d mail %d: time %v, reference %v", n, i, gt[i], wt[i])
			}
		}
		for i := 0; i < gc*dim; i++ {
			if math.Float32bits(gm[i]) != math.Float32bits(wm[i]) {
				return fmt.Errorf("node %d mail %d elem %d: %v, reference %v", n, i/dim, i%dim, gm[i], wm[i])
			}
		}
	}
	gl, wl := got.db.G.EventLog(), want.db.G.EventLog()
	if len(gl) != len(wl) {
		return fmt.Errorf("event log holds %d events, reference %d", len(gl), len(wl))
	}
	for i := range gl {
		g, w := gl[i], wl[i]
		if g.ID != w.ID || g.Src != w.Src || g.Dst != w.Dst || g.Label != w.Label ||
			math.Float64bits(g.Time) != math.Float64bits(w.Time) || len(g.Feat) != len(w.Feat) {
			return fmt.Errorf("event log %d: %+v, reference %+v", i, g, w)
		}
		for j := range g.Feat {
			if math.Float32bits(g.Feat[j]) != math.Float32bits(w.Feat[j]) {
				return fmt.Errorf("event log %d feat %d: %v, reference %v", i, j, g.Feat[j], w.Feat[j])
			}
		}
	}
	return nil
}

// TestQuickFrontierPropagationMatchesReference is the differential oracle
// for frontier-batched propagation: twin models fed the same randomized
// batches, one through ProcessBatch and one through the per-event
// reference, must hold bit-identical mailboxes, event logs and delivery
// counts after every batch, and the frontier path's gdb.DB counters must
// equal the per-event gather's queries and items.
func TestQuickFrontierPropagationMatchesReference(t *testing.T) {
	count := 60
	if testing.Short() {
		count = 20
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := genPropCase(rng)
		got, want := twinModels(t, c.cfg)
		var k refKHop
		var queries, items int64
		for b, batch := range c.batches {
			got.EnsureNodes(c.nodes[b])
			want.EnsureNodes(c.nodes[b])
			seedStates(rng, batch, got, want)
			got.prop.ProcessBatch(batch, got.st)
			q, it := referenceProcessBatch(want.prop, &k, batch, want.st)
			queries, items = queries+q, items+it
			if err := samePropagation(got, want); err != nil {
				t.Errorf("seed %d (%s stream, hops %d, neighbors %d, reduce %d, %s graph) batch %d of %d events: %v",
					seed, c.order, c.cfg.Hops, c.cfg.Neighbors, c.cfg.Reduce, c.cfg.GraphBackend, b, len(batch), err)
				return false
			}
			if st := got.db.Stats(); st.Queries != queries || st.Items != items {
				t.Errorf("seed %d (%s stream, hops %d) batch %d: gdb counted %d queries / %d items, per-event gather %d / %d",
					seed, c.order, c.cfg.Hops, b, st.Queries, st.Items, queries, items)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(28))}); err != nil {
		t.Fatal(err)
	}
}

// orderedBatch returns n events over numNodes nodes, at increasing times
// from t0 or, when decreasing, at strictly decreasing times below t0.
func orderedBatch(rng *rand.Rand, n, numNodes, dim int, t0 float64, decreasing bool) []tgraph.Event {
	batch := make([]tgraph.Event, n)
	for i := range batch {
		tm := t0 + float64(i)
		if decreasing {
			tm = t0 - float64(i)
		}
		batch[i] = tgraph.Event{
			Src:  tgraph.NodeID(rng.Intn(numNodes)),
			Dst:  tgraph.NodeID(rng.Intn(numNodes)),
			Time: tm,
			Feat: make([]float32, dim),
		}
	}
	return batch
}

// TestProcessBatchRoundTrips: behind a graph DB charging d per round trip, a
// sorted 200-event batch costs Hops−1 round trips — one per hop — and a
// strictly decreasing one, where every event is a run of its own, costs
// 200·(Hops−1), what the per-event loop paid for any batch.
func TestProcessBatchRoundTrips(t *testing.T) {
	const d = time.Millisecond
	for _, hops := range []int{1, 2, 3} {
		for _, decreasing := range []bool{false, true} {
			cfg := tinyConfig(64)
			cfg.Hops = hops
			db := gdb.New(NewGraphStore(cfg))
			db.Latency = gdb.Constant(d)
			m, err := NewWithDB(cfg, db)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(hops)))
			// A history before the batch, so the hops have neighbors to find.
			m.prop.ProcessBatch(orderedBatch(rng, 300, 64, cfg.EdgeDim, 0, false), m.st)
			db.ResetStats()
			m.prop.ProcessBatch(orderedBatch(rng, 200, 64, cfg.EdgeDim, 1000, decreasing), m.st)
			want := time.Duration(hops-1) * d
			if decreasing {
				want *= 200
			}
			st := db.Stats()
			if st.Simulated != want {
				t.Errorf("hops %d, decreasing %v: charged %v, want %v", hops, decreasing, st.Simulated, want)
			}
			if hops > 1 && st.Items == 0 {
				t.Errorf("hops %d, decreasing %v: the gathers found no neighbors; the test proves nothing", hops, decreasing)
			}
		}
	}
}

// TestProcessBatchAllocsNoMoreThanReference: the frontier buffers live in the
// pooled scratch, so a warm ProcessBatch allocates no more than the per-event
// reference does on a twin model. Both make the same graph appends, so any
// allocation the frontier adds shows.
func TestProcessBatchAllocsNoMoreThanReference(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	// A collection empties the scratch pools at random points of either
	// measurement; without one both sides see warm scratch throughout.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	d := tinyData(4)
	for _, hops := range []int{2, 3} {
		cfg := tinyConfig(d.NumNodes)
		cfg.Hops = hops
		got, want := twinModels(t, cfg)
		var k refKHop
		warm, batch := d.Events[:600], d.Events[600:800]
		for lo := 0; lo < len(warm); lo += 200 {
			got.prop.ProcessBatch(warm[lo:lo+200], got.st)
			referenceProcessBatch(want.prop, &k, warm[lo:lo+200], want.st)
		}
		frontier := testing.AllocsPerRun(20, func() { got.prop.ProcessBatch(batch, got.st) })
		reference := testing.AllocsPerRun(20, func() { referenceProcessBatch(want.prop, &k, batch, want.st) })
		t.Logf("hops %d: %.1f allocs per batch, reference %.1f", hops, frontier, reference)
		if frontier > reference {
			t.Errorf("hops %d: ProcessBatch allocates %.1f times per batch, the per-event reference %.1f", hops, frontier, reference)
		}
	}
}
