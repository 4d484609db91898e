package scenario

import (
	"math/rand"
	"sort"

	"apan/internal/dataset"
	"apan/internal/tgraph"
)

// WorkloadParams sizes a generated trace. The harness fills it from
// RunOptions; generators treat it as read-only.
type WorkloadParams struct {
	// Nodes is the node-ID space admitted at model construction time.
	Nodes int
	// MaxNodes bounds the IDs a trace may name; churn generators emit IDs in
	// [Nodes, MaxNodes) to exercise dynamic admission. MaxNodes ≥ Nodes.
	MaxNodes int
	// Events is the trace length.
	Events int
	// EdgeDim is the event feature dimension (divisible by the model's
	// attention heads).
	EdgeDim int
	// Span is the virtual-clock length of the trace in seconds. All event
	// times lie in [0, Span]; no generator reads the wall clock.
	Span float64
}

// Trace is a deterministic synthetic workload: the event stream in arrival
// order (which out-of-order generators deliberately decouple from timestamp
// order) plus the node-space bounds the drivers need.
type Trace struct {
	Name     string
	NumNodes int // initially admitted node space; IDs ≥ this exercise admission
	MaxNodes int // exclusive upper bound on IDs appearing in Events
	EdgeDim  int
	Span     float64
	// Shift is the concept-drift timestamp: events at Time ≥ Shift follow a
	// different interaction structure than those before (0 for stationary
	// workloads). The drift driver measures adaptation on the ≥-Shift part.
	Shift  float64
	Events []tgraph.Event
}

// MaxTime returns the largest event timestamp (0 for an empty trace).
func (t *Trace) MaxTime() float64 {
	var max float64
	for i := range t.Events {
		if t.Events[i].Time > max {
			max = t.Events[i].Time
		}
	}
	return max
}

// Workload generates a deterministic trace from a seeded RNG. Equal (rng
// state, params) must give bitwise-equal traces: the replay-determinism
// invariant regenerates the trace and compares.
type Workload func(rng *rand.Rand, p WorkloadParams) *Trace

// synth derives event features from per-node latent intents, the same
// structure the dataset generators use: features carry signal about their
// endpoints, so attention has something to learn, and fraud signatures are
// separable.
type synth struct {
	rng *rand.Rand
	lat [][]float32
	dim int
}

func newSynth(rng *rand.Rand, nodes, dim int) *synth {
	s := &synth{rng: rng, dim: dim, lat: make([][]float32, nodes)}
	for i := range s.lat {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64() * 0.5)
		}
		s.lat[i] = v
	}
	return s
}

func (s *synth) feat(src, dst tgraph.NodeID) []float32 {
	f := make([]float32, s.dim)
	a, b := s.lat[src], s.lat[dst]
	for j := range f {
		f[j] = 0.5*(a[j]+b[j]) + float32(s.rng.NormFloat64()*0.3)
	}
	return f
}

// pickPair draws a src/dst pair with distinct endpoints from an alias
// sampler over n nodes.
func pickPair(rng *rand.Rand, pick *dataset.AliasSampler, n int) (tgraph.NodeID, tgraph.NodeID) {
	src := pick.Draw(rng)
	dst := pick.Draw(rng)
	if dst == src {
		dst = (src + 1) % n
	}
	return tgraph.NodeID(src), tgraph.NodeID(dst)
}

// SmoothBaseline is stationary mildly-skewed traffic — the control scenario
// every prior test stream resembled, kept as the parity/determinism anchor.
func SmoothBaseline(rng *rand.Rand, p WorkloadParams) *Trace {
	return zipfTraffic(rng, p, "smooth_baseline", 0.9)
}

// ZipfHotspot is heavily skewed traffic (α = 1.6): a handful of celebrity
// nodes receive most interactions, hammering their state rows and mailbox
// slots while the long tail stays cold.
func ZipfHotspot(rng *rand.Rand, p WorkloadParams) *Trace {
	return zipfTraffic(rng, p, "zipf_hotspot", 1.6)
}

func zipfTraffic(rng *rand.Rand, p WorkloadParams, name string, exp float64) *Trace {
	pick := dataset.NewAliasSampler(dataset.ZipfWeights(rng, p.Nodes, exp))
	sy := newSynth(rng, p.Nodes, p.EdgeDim)
	tr := &Trace{Name: name, NumNodes: p.Nodes, MaxNodes: p.Nodes, EdgeDim: p.EdgeDim, Span: p.Span}
	rate := float64(p.Events) / p.Span
	var t float64
	for len(tr.Events) < p.Events {
		t += rng.ExpFloat64() / rate
		src, dst := pickPair(rng, pick, p.Nodes)
		tr.Events = append(tr.Events, tgraph.Event{Src: src, Dst: dst, Time: t, Feat: sy.feat(src, dst), Label: -1})
	}
	return tr
}

// FlashCrowd is the paper's "Black Friday" shape (§1): smooth background
// traffic with a burst window at 40–50% of the span during which the event
// rate jumps 20× and most traffic concentrates on a small hot set — the
// load profile the asynchronous design exists to absorb.
func FlashCrowd(rng *rand.Rand, p WorkloadParams) *Trace {
	pick := dataset.NewAliasSampler(dataset.ZipfWeights(rng, p.Nodes, 0.9))
	sy := newSynth(rng, p.Nodes, p.EdgeDim)
	hotN := 8
	if hotN > p.Nodes {
		hotN = p.Nodes
	}
	hot := rng.Perm(p.Nodes)[:hotN]
	tr := &Trace{Name: "flash_crowd", NumNodes: p.Nodes, MaxNodes: p.Nodes, EdgeDim: p.EdgeDim, Span: p.Span}
	baseRate := float64(p.Events) / p.Span / 3 // burst supplies the rest
	burstLo, burstHi := 0.4*p.Span, 0.5*p.Span
	var t float64
	for len(tr.Events) < p.Events {
		rate := baseRate
		inBurst := t >= burstLo && t < burstHi
		if inBurst {
			rate = baseRate * 20
		}
		t += rng.ExpFloat64() / rate
		var src, dst tgraph.NodeID
		if inBurst && rng.Float64() < 0.8 {
			src = tgraph.NodeID(hot[rng.Intn(hotN)])
			dst = tgraph.NodeID(hot[rng.Intn(hotN)])
			if dst == src {
				dst = tgraph.NodeID((int(src) + 1) % p.Nodes)
			}
		} else {
			src, dst = pickPair(rng, pick, p.Nodes)
		}
		tr.Events = append(tr.Events, tgraph.Event{Src: src, Dst: dst, Time: t, Feat: sy.feat(src, dst), Label: -1})
	}
	return tr
}

// NodeChurn admits new node IDs throughout the stream: the population
// frontier opens linearly from Nodes to MaxNodes, and half the traffic
// concentrates on the most recently admitted (cold-start) nodes — TGAT's
// unseen-node setting as a continuous arrival process. IDs ≥ Trace.NumNodes
// force EnsureNodes on the direct/pipeline paths and dynamic admission on
// the HTTP path.
func NodeChurn(rng *rand.Rand, p WorkloadParams) *Trace {
	sy := newSynth(rng, p.MaxNodes, p.EdgeDim)
	tr := &Trace{Name: "node_churn", NumNodes: p.Nodes, MaxNodes: p.MaxNodes, EdgeDim: p.EdgeDim, Span: p.Span}
	rate := float64(p.Events) / p.Span
	var t float64
	draw := func(frontier int) tgraph.NodeID {
		if rng.Float64() < 0.5 {
			// Cold-start bias: the newest admitted identities interact most
			// (fresh accounts, new listings).
			w := 8
			if w > frontier {
				w = frontier
			}
			return tgraph.NodeID(frontier - 1 - rng.Intn(w))
		}
		return tgraph.NodeID(rng.Intn(frontier))
	}
	for k := 0; k < p.Events; k++ {
		t += rng.ExpFloat64() / rate
		frontier := p.Nodes + int(float64(p.MaxNodes-p.Nodes)*float64(k)/float64(p.Events)) + 1
		if frontier > p.MaxNodes {
			frontier = p.MaxNodes
		}
		src := draw(frontier)
		dst := draw(frontier)
		if dst == src {
			dst = tgraph.NodeID((int(src) + 1) % frontier)
		}
		tr.Events = append(tr.Events, tgraph.Event{Src: src, Dst: dst, Time: t, Feat: sy.feat(src, dst), Label: -1})
	}
	return tr
}

// OutOfOrder perturbs a smooth stream the way a distributed ingest layer
// does (§3.6): ~30% of events carry a timestamp swapped with a nearby
// neighbor (arrival order ≠ time order), ~10% duplicate the previous event's
// timestamp exactly, and ~5% are full duplicate deliveries of the previous
// event. The mailbox's sorted readout must hide all of it.
func OutOfOrder(rng *rand.Rand, p WorkloadParams) *Trace {
	tr := zipfTraffic(rng, p, "out_of_order", 0.9)
	evs := tr.Events
	for i := 1; i < len(evs); i++ {
		switch r := rng.Float64(); {
		case r < 0.30:
			// Local disorder: swap times with a recent predecessor.
			j := i - 1 - rng.Intn(min(6, i))
			evs[i].Time, evs[j].Time = evs[j].Time, evs[i].Time
		case r < 0.40:
			evs[i].Time = evs[i-1].Time // exact duplicate timestamp
		case r < 0.45:
			dup := evs[i-1] // duplicate delivery of the previous event
			dup.Feat = append([]float32(nil), evs[i-1].Feat...)
			evs[i] = dup
		}
	}
	return tr
}

// ConceptDrift is the online-continual-learning workload: community-
// structured traffic whose community memberships are rewired mid-stream.
// Every node carries a fixed latent identity; features identify the
// interacting pair (0.5·(a+b) + noise), so attention has stable signal
// about who is who. Before the shift (at 45% of the span), interactions
// are intra-community under partition A — the rule every pre-shift
// training pass learns. At the shift the partition is reshuffled: the same
// nodes regroup into new communities (each new community mixes nodes from
// all old ones) and traffic becomes intra-community under partition B.
// "Nodes that interact are similar" stays true — the drift is in WHICH
// nodes count as similar — so the rule remains representable by the
// inner-product decoder, but a model with frozen parameters keeps mapping
// identities to the dead grouping while an online trainer re-fits encoder
// and decoder to the new one. That gap is what the adaptation check
// measures.
func ConceptDrift(rng *rand.Rand, p WorkloadParams) *Trace {
	communities := 4
	if communities > p.Nodes {
		communities = p.Nodes
	}
	dim := p.EdgeDim
	// Distinct per-node latent identities (unit direction, fixed scale):
	// the features must identify nodes, not communities, or the reshuffle
	// would be invisible.
	lat := make([][]float32, p.Nodes)
	for u := range lat {
		v := dataset.RandUnitVec(rng, dim)
		for j := range v {
			v[j] *= 2
		}
		lat[u] = v
	}
	// Partition A: contiguous stripes. Partition B: a seeded reshuffle, so
	// each new community draws members from every old one.
	memberA := make([][]int, communities)
	memberB := make([][]int, communities)
	commA := make([]int, p.Nodes)
	commB := make([]int, p.Nodes)
	perm := rng.Perm(p.Nodes)
	for u := 0; u < p.Nodes; u++ {
		a := u % communities
		b := perm[u] % communities
		commA[u], commB[u] = a, b
		memberA[a] = append(memberA[a], u)
		memberB[b] = append(memberB[b], u)
	}
	feat := func(u, v int) []float32 {
		f := make([]float32, dim)
		for j := range f {
			f[j] = 0.5*(lat[u][j]+lat[v][j]) + float32(rng.NormFloat64()*0.15)
		}
		return f
	}

	tr := &Trace{Name: "concept_drift", NumNodes: p.Nodes, MaxNodes: p.Nodes,
		EdgeDim: dim, Span: p.Span, Shift: 0.45 * p.Span}
	rate := float64(p.Events) / p.Span
	var t float64
	for len(tr.Events) < p.Events {
		t += rng.ExpFloat64() / rate
		u := rng.Intn(p.Nodes)
		pool := memberA[commA[u]]
		if t >= tr.Shift {
			pool = memberB[commB[u]]
		}
		v := pool[rng.Intn(len(pool))]
		if v == u {
			v = pool[(rng.Intn(len(pool))+1)%len(pool)]
			if v == u {
				v = (u + 1) % p.Nodes
			}
		}
		tr.Events = append(tr.Events, tgraph.Event{
			Src: tgraph.NodeID(u), Dst: tgraph.NodeID(v), Time: t,
			Feat: feat(u, v), Label: -1,
		})
	}
	return tr
}

// FraudRing is the Alipay shape (§4.1) at harness scale: community-local
// background transactions (label 0) with injected fraud rings — small
// colluding groups burst-transacting among themselves and cashing out via a
// mule inside tight windows, their features shifted along a fraud direction
// (label 1). Ground truth enables per-scenario AP/AUC.
func FraudRing(rng *rand.Rand, p WorkloadParams) *Trace {
	sy := newSynth(rng, p.Nodes, p.EdgeDim)
	fraudDir := dataset.RandUnitVec(rng, p.EdgeDim)

	communities := 6
	if communities > p.Nodes {
		communities = p.Nodes
	}
	members := make([][]int, communities)
	for u := 0; u < p.Nodes; u++ {
		c := rng.Intn(communities)
		members[c] = append(members[c], u)
	}

	tr := &Trace{Name: "fraud_ring", NumNodes: p.Nodes, MaxNodes: p.Nodes, EdgeDim: p.EdgeDim, Span: p.Span}
	fraudEvents := p.Events / 20
	background := p.Events - fraudEvents
	rate := float64(background) / p.Span
	var t float64
	for len(tr.Events) < background {
		t += rng.ExpFloat64() / rate
		u := rng.Intn(p.Nodes)
		var v int
		if m := members[u%communities]; len(m) > 1 && rng.Float64() < 0.85 {
			v = m[rng.Intn(len(m))]
		} else {
			v = rng.Intn(p.Nodes)
		}
		if v == u {
			v = (u + 1) % p.Nodes
		}
		tr.Events = append(tr.Events, tgraph.Event{
			Src: tgraph.NodeID(u), Dst: tgraph.NodeID(v), Time: t,
			Feat: sy.feat(tgraph.NodeID(u), tgraph.NodeID(v)), Label: 0,
		})
	}

	rings := 3
	for r := 0; r < rings; r++ {
		size := 3 + rng.Intn(3)
		ring := make([]int, size)
		for i := range ring {
			ring[i] = rng.Intn(p.Nodes)
		}
		mule := rng.Intn(p.Nodes)
		// Stratified starts spread rings across the span so every
		// chronological window observes fraud.
		start := p.Span * 0.9 * (float64(r) + rng.Float64()) / float64(rings)
		window := 0.05 * p.Span
		per := fraudEvents / rings
		if r == rings-1 {
			per = fraudEvents - per*(rings-1)
		}
		for i := 0; i < per; i++ {
			u := ring[rng.Intn(size)]
			v := ring[rng.Intn(size)]
			if rng.Float64() < 0.4 || v == u {
				v = mule
			}
			if v == u {
				v = (u + 1) % p.Nodes
			}
			f := sy.feat(tgraph.NodeID(u), tgraph.NodeID(v))
			dataset.AddScaled(f, fraudDir, 1.0+0.5*float32(rng.Float64()))
			tr.Events = append(tr.Events, tgraph.Event{
				Src: tgraph.NodeID(u), Dst: tgraph.NodeID(v),
				Time: start + rng.Float64()*window, Feat: f, Label: 1,
			})
		}
	}

	// Fraud bursts interleave with background by time; arrival order follows
	// the merged timeline (the ingest layer of this scenario is in-order).
	sort.SliceStable(tr.Events, func(a, b int) bool { return tr.Events[a].Time < tr.Events[b].Time })
	return tr
}
