package train

import (
	"math/rand"

	"apan/internal/tgraph"
)

// ReplayBuffer holds the trainer's view of the event stream: a classic
// reservoir sample over everything observed (long-term distribution) plus a
// ring of the most recent events (what the stream looks like right now).
// Mini-batches mix draws from both, so the trainer tracks drift without
// catastrophically forgetting the stationary structure.
//
// The buffer is seeded and single-consumer: all methods must be called from
// the trainer's run context. Determinism: equal (seed, Add sequence,
// SampleInto sequence) produce equal samples.
type ReplayBuffer struct {
	rng *rand.Rand

	reservoir []tgraph.Event
	resCap    int
	seen      int64 // events offered to the reservoir

	recent []tgraph.Event // ring, next points at the oldest entry
	recCap int
	next   int
	filled bool
}

// NewReplayBuffer builds a buffer with the given reservoir and recency
// capacities, drawing reservoir replacement decisions from its own rng.
func NewReplayBuffer(resCap, recCap int, seed int64) *ReplayBuffer {
	return &ReplayBuffer{
		rng:    rand.New(rand.NewSource(seed)),
		resCap: resCap,
		recCap: recCap,
	}
}

// Add offers one event to both the reservoir and the recency ring.
func (b *ReplayBuffer) Add(ev tgraph.Event) {
	b.seen++
	if len(b.reservoir) < b.resCap {
		b.reservoir = append(b.reservoir, ev)
	} else if j := b.rng.Int63n(b.seen); j < int64(b.resCap) {
		b.reservoir[j] = ev
	}
	if b.recCap > 0 {
		if len(b.recent) < b.recCap {
			b.recent = append(b.recent, ev)
		} else {
			b.recent[b.next] = ev
			b.next = (b.next + 1) % b.recCap
			b.filled = true
		}
	}
}

// Len returns the number of events currently resident (reservoir + ring;
// an event may be in both).
func (b *ReplayBuffer) Len() int { return len(b.reservoir) + len(b.recent) }

// SampleInto appends up to k events to out, each taken from the recency
// ring with probability recencyBias and from the reservoir otherwise. Events
// naming a node ≥ maxNode are skipped (the runtime may have been rolled back
// to a smaller node space than the buffer remembers), so fewer than k may
// be appended. Pass a reused buffer sliced to [:0] and a steady-state caller
// draws mini-batches without allocating.
func (b *ReplayBuffer) SampleInto(out []tgraph.Event, rng *rand.Rand, k int, recencyBias float64, maxNode int) []tgraph.Event {
	if len(b.reservoir) == 0 && len(b.recent) == 0 {
		return out
	}
	for len(out) < k {
		var ev tgraph.Event
		if len(b.recent) > 0 && (len(b.reservoir) == 0 || rng.Float64() < recencyBias) {
			ev = b.recent[rng.Intn(len(b.recent))]
		} else {
			ev = b.reservoir[rng.Intn(len(b.reservoir))]
		}
		if int(ev.Src) >= maxNode || int(ev.Dst) >= maxNode {
			// Count the failed draw so a buffer full of vanished nodes cannot
			// spin forever.
			k--
			continue
		}
		out = append(out, ev)
	}
	return out
}
