// Package gdb provides the remote-flavored temporal graph access layer: DB,
// a query-accounting wrapper that models the remote distributed graph
// database backing the paper's production deployment (Figure 6) — any
// in-process store behind a simulated RPC latency model with batched k-hop
// gathers. Synchronous CTDG models (TGAT, TGN) pay the round-trip cost on
// the inference critical path; APAN's asynchronous propagator pays it off
// the critical path — the contrast behind Figure 6 and the §4.6 "much
// greater than 8.7×" claim.
package gdb

import (
	"sync/atomic"
	"time"

	"apan/internal/tgraph"
)

// LatencyModel maps one neighbor-list query returning n items to a simulated
// round-trip cost.
type LatencyModel func(items int) time.Duration

// Constant returns a latency model with a fixed per-query cost.
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
	// Latency, when non-nil, is charged on every neighbor query.
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
	if db.Latency != nil {
		d := db.Latency(n)
		db.simulated.Add(int64(d))
		if db.Sleep {
			time.Sleep(d)
		}
	}
}

// MostRecentNeighbors is Store.MostRecentNeighbors with accounting.
func (db *DB) MostRecentNeighbors(n tgraph.NodeID, t float64, k int, out []tgraph.Incidence) []tgraph.Incidence {
	before := len(out)
	out = db.G.MostRecentNeighbors(n, t, k, out)
	db.charge(len(out) - before)
	return out
}

// chargeKHop records batched-gather accounting for one k-hop traversal:
// each frontier node counts as one logical query, but the whole hop travels
// as a single round trip, so the latency model is charged once per hop on
// the hop's total item count — the protocol a remote graph DB would use
// (gather the frontier, answer in one response).
func (db *DB) chargeKHop(out [][]tgraph.Incidence, seeds int) {
	frontier := seeds
	for _, hop := range out {
		items := len(hop)
		db.queries.Add(int64(frontier))
		db.items.Add(int64(items))
		if db.Latency != nil {
			d := db.Latency(items)
			db.simulated.Add(int64(d))
			if db.Sleep {
				time.Sleep(d)
			}
		}
		frontier = items
	}
}

// KHopMostRecent is Store.KHopMostRecent with batched-gather accounting
// (see chargeKHop).
func (db *DB) KHopMostRecent(seeds []tgraph.NodeID, t float64, fanout, hops int) [][]tgraph.Incidence {
	out := db.G.KHopMostRecent(seeds, t, fanout, hops)
	db.chargeKHop(out, len(seeds))
	return out
}

// KHopMostRecentInto is KHopMostRecent through the backend's scratch-reuse
// path, with the same batched-gather accounting. The result lifetime
// follows tgraph.KHopScratch.
func (db *DB) KHopMostRecentInto(sc *tgraph.KHopScratch, seeds []tgraph.NodeID, t float64, fanout, hops int) [][]tgraph.Incidence {
	out := db.G.KHopMostRecentInto(sc, seeds, t, fanout, hops)
	db.chargeKHop(out, len(seeds))
	return out
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
