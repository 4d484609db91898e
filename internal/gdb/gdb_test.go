package gdb

import (
	"testing"
	"time"

	"apan/internal/tgraph"
)

func chainDB(t *testing.T) *DB {
	t.Helper()
	g := tgraph.New(4)
	g.AddEvent(tgraph.Event{Src: 0, Dst: 1, Time: 1})
	g.AddEvent(tgraph.Event{Src: 1, Dst: 2, Time: 2})
	g.AddEvent(tgraph.Event{Src: 2, Dst: 3, Time: 3})
	return New(g)
}

func TestQueryAccounting(t *testing.T) {
	db := chainDB(t)
	got := db.MostRecentNeighbors(1, 10, 5, nil)
	if len(got) != 2 {
		t.Fatalf("neighbors: %+v", got)
	}
	st := db.Stats()
	if st.Queries != 1 || st.Items != 2 {
		t.Fatalf("stats after one query: %+v", st)
	}
	db.ResetStats()
	if db.Stats().Queries != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestKHopAccountingChargesPerFrontierNode(t *testing.T) {
	db := chainDB(t)
	db.Latency = Constant(time.Millisecond)
	// Hop 1 from node 1, hop 2 from every peer hop 1 reached.
	hop1, _ := db.MostRecentFrontier([]tgraph.NodeID{1}, []float64{10}, 2, nil, nil)
	seeds := make([]tgraph.NodeID, len(hop1))
	times := make([]float64, len(hop1))
	for i, inc := range hop1 {
		seeds[i], times[i] = inc.Peer, 10
	}
	hop2, _ := db.MostRecentFrontier(seeds, times, 2, nil, nil)
	st := db.Stats()
	// Hop 1: one query (node 1). Hop 2: one query per hop-1 result.
	wantQueries := int64(1 + len(hop1))
	if st.Queries != wantQueries || st.Items != int64(len(hop1)+len(hop2)) {
		t.Fatalf("queries=%d items=%d want %d and %d", st.Queries, st.Items, wantQueries, len(hop1)+len(hop2))
	}
	// Each hop is one round trip, however many seeds it gathers from.
	if st.Simulated != 2*time.Millisecond {
		t.Fatalf("simulated=%v want 2ms (one round trip per hop)", st.Simulated)
	}
}

// TestFrontierAnswersEachSeedAtItsOwnTime: every seed is answered at its own
// query time, in seed order, and ends delimits the answers — exactly what
// one MostRecentNeighbors call per seed returns. An empty frontier is still
// one round trip.
func TestFrontierAnswersEachSeedAtItsOwnTime(t *testing.T) {
	db := chainDB(t)
	db.Latency = PerItem(time.Millisecond, time.Microsecond)
	seeds := []tgraph.NodeID{1, 2, 1, 3}
	times := []float64{10, 2.5, 1.5, 3}
	prefix := []tgraph.Incidence{{Peer: -1}}
	out, ends := db.MostRecentFrontier(seeds, times, 5, prefix, []int{7})
	if len(ends) != 1+len(seeds) || ends[0] != 7 || out[0].Peer != -1 {
		t.Fatalf("frontier must append to out and ends: out=%+v ends=%v", out, ends)
	}
	from := len(prefix)
	for i, n := range seeds {
		want := db.G.MostRecentNeighbors(n, times[i], 5, nil)
		got := out[from:ends[1+i]]
		if len(got) != len(want) {
			t.Fatalf("seed %d (node %d at %v): %+v want %+v", i, n, times[i], got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("seed %d item %d: %+v want %+v", i, j, got[j], want[j])
			}
		}
		from = ends[1+i]
	}
	items := len(out) - len(prefix)
	st := db.Stats()
	if st.Queries != int64(len(seeds)) || st.Items != int64(items) || st.Simulated != db.Latency(items) {
		t.Fatalf("stats %+v: want %d queries, %d items, one round trip of %v", st, len(seeds), items, db.Latency(items))
	}

	db.ResetStats()
	db.MostRecentFrontier(nil, nil, 5, nil, nil)
	if st := db.Stats(); st.Queries != 0 || st.Items != 0 || st.Simulated != time.Millisecond {
		t.Fatalf("empty frontier: %+v, want one empty round trip", st)
	}
}

func TestSimulatedLatencyAccumulatesWithoutSleep(t *testing.T) {
	db := chainDB(t)
	db.Latency = Constant(time.Millisecond)
	start := time.Now()
	db.MostRecentNeighbors(1, 10, 5, nil)
	db.MostRecentNeighbors(2, 10, 5, nil)
	elapsed := time.Since(start)
	st := db.Stats()
	if st.Simulated != 2*time.Millisecond {
		t.Fatalf("simulated=%v", st.Simulated)
	}
	// Generous ceiling: the two queries do microseconds of work; anything
	// near the 2ms simulated total would mean we actually slept.
	if elapsed > time.Millisecond {
		t.Fatalf("non-sleep mode must not block (%v)", elapsed)
	}
}

func TestSleepModeBlocks(t *testing.T) {
	db := chainDB(t)
	db.Latency = Constant(2 * time.Millisecond)
	db.Sleep = true
	start := time.Now()
	db.MostRecentNeighbors(1, 10, 5, nil)
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("sleep mode returned too fast: %v", elapsed)
	}
}

func TestPerItemLatency(t *testing.T) {
	model := PerItem(time.Millisecond, 10*time.Microsecond)
	if got := model(0); got != time.Millisecond {
		t.Fatalf("base: %v", got)
	}
	if got := model(100); got != 2*time.Millisecond {
		t.Fatalf("base+items: %v", got)
	}
}

func TestAddEventNotCharged(t *testing.T) {
	db := chainDB(t)
	db.Latency = Constant(time.Hour)
	db.AddEvent(tgraph.Event{Src: 0, Dst: 3, Time: 4})
	if st := db.Stats(); st.Simulated != 0 || st.Queries != 0 {
		t.Fatalf("writes must be free: %+v", st)
	}
	if db.G.NumEvents() != 4 {
		t.Fatal("event not inserted")
	}
}
