// Package gdb provides the remote-flavored temporal graph access layer: DB,
// a query-accounting wrapper that models the remote distributed graph
// database backing the paper's production deployment (Figure 6) — any
// in-process store behind a simulated RPC latency model. Reads are either
// single neighbor-list queries (MostRecentNeighbors, one round trip each) or
// frontier gathers (MostRecentFrontier): every seed of one hop, each with its
// own query time, answered in one round trip. The mail propagator expands a
// whole batch's neighborhoods with one frontier gather per hop, so a batch
// costs Hops−1 round trips, not that many per event. Synchronous CTDG models
// (TGAT, TGN) pay the round-trip cost on the inference critical path; APAN's
// asynchronous propagator pays it off the critical path — the contrast behind
// Figure 6 and the §4.6 "much greater than 8.7×" claim.
package gdb

import (
	"sync/atomic"
	"time"

	"apan/internal/tgraph"
)

// LatencyModel maps one round trip returning n items to a simulated cost.
type LatencyModel func(items int) time.Duration

// Constant returns a latency model with a fixed cost per round trip.
func Constant(d time.Duration) LatencyModel {
	return func(int) time.Duration { return d }
}

// PerItem returns a latency model with a base round trip plus a marginal
// per-item transfer cost.
func PerItem(base, per time.Duration) LatencyModel {
	return func(items int) time.Duration { return base + time.Duration(items)*per }
}

// DB is a temporal graph store with query accounting and an optional
// simulated-latency model. G may be either tgraph.Store backend — flat or
// sharded — selected by core.Config.GraphBackend.
type DB struct {
	G tgraph.Store
	// Latency, when non-nil, is charged on every round trip.
	Latency LatencyModel
	// Sleep controls whether simulated latency blocks the caller (true, for
	// live serving demos) or is only accumulated (false, for benchmarks that
	// add it analytically).
	Sleep bool

	queries   atomic.Int64
	items     atomic.Int64
	simulated atomic.Int64 // nanoseconds
}

// New wraps g with no latency model.
func New(g tgraph.Store) *DB { return &DB{G: g} }

// charge records one query returning n items.
func (db *DB) charge(n int) {
	db.queries.Add(1)
	db.items.Add(int64(n))
	db.simulate(n)
}

// simulate charges the latency model for one round trip returning n items.
func (db *DB) simulate(n int) {
	if db.Latency == nil {
		return
	}
	d := db.Latency(n)
	db.simulated.Add(int64(d))
	if db.Sleep {
		time.Sleep(d)
	}
}

// MostRecentNeighbors is Store.MostRecentNeighbors with accounting.
func (db *DB) MostRecentNeighbors(n tgraph.NodeID, t float64, k int, out []tgraph.Incidence) []tgraph.Incidence {
	before := len(out)
	out = db.G.MostRecentNeighbors(n, t, k, out)
	db.charge(len(out) - before)
	return out
}

// MostRecentFrontier answers one hop of a batched k-hop gather. For each i
// it appends to out the up-to-k most recent interactions of seeds[i]
// strictly before times[i], newest first, and appends to ends the length of
// out after that answer, so seeds[i]'s neighbors are out[ends[i-1]:ends[i]]
// (from the original length of out for i = 0). Each seed counts as one
// logical query, but the whole frontier travels as one round trip: the
// latency model is charged once, on the hop's total item count — the
// protocol a remote graph DB would use (gather the frontier, answer in one
// response). The charge is made even for an empty frontier, so a k-hop
// expansion always costs one round trip per hop.
func (db *DB) MostRecentFrontier(seeds []tgraph.NodeID, times []float64, k int, out []tgraph.Incidence, ends []int) ([]tgraph.Incidence, []int) {
	before := len(out)
	for i, n := range seeds {
		out = db.G.MostRecentNeighbors(n, times[i], k, out)
		ends = append(ends, len(out))
	}
	items := len(out) - before
	db.queries.Add(int64(len(seeds)))
	db.items.Add(int64(items))
	db.simulate(items)
	return out, ends
}

// AddEvent inserts an event (writes are not charged latency: ingest is
// asynchronous in both deployment modes).
func (db *DB) AddEvent(e tgraph.Event) int64 { return db.G.AddEvent(e) }

// Stats reports accumulated accounting since the last Reset.
type Stats struct {
	Queries   int64
	Items     int64
	Simulated time.Duration
}

// Stats returns the current counters.
func (db *DB) Stats() Stats {
	return Stats{
		Queries:   db.queries.Load(),
		Items:     db.items.Load(),
		Simulated: time.Duration(db.simulated.Load()),
	}
}

// ResetStats clears the counters.
func (db *DB) ResetStats() {
	db.queries.Store(0)
	db.items.Store(0)
	db.simulated.Store(0)
}
