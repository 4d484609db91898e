package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"apan/internal/serve"
)

// options are the settings of one run of one workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	sz       sizes
	traceOut string // traced runs: where to write the spans; "" keeps them in memory only
}

func (o options) window(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// outcome is the result of one run: the metrics of one kind (end to end, or
// per layer when traced) and what the output checks found.
type outcome struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Samples   int                `json:"samples"` // successful operations behind the latency metrics
	Metrics   map[string]float64 `json:"metrics"`
}

func (o *outcome) absorb(r *rig, p *pass) {
	o.Attempted += len(p.samples)
	o.Failed += p.failed()
	o.Problems = append(o.Problems, r.problems...)
	o.Correct = o.Failed == 0 && len(o.Problems) == 0
}

// latencies splits a pass's successful samples into sorted millisecond
// series and counts those within the workload's latency limit.
func latencies(p *pass, limit time.Duration) (lat, sync []float64, onTime int) {
	for _, s := range p.samples {
		if !s.ok {
			continue
		}
		lat = append(lat, ms(s.latency))
		sync = append(sync, ms(s.sync))
		if s.latency <= limit {
			onTime++
		}
	}
	return sortedCopy(lat), sortedCopy(sync), onTime
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func perSecond(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// runUntraced is one end-to-end run: it sets the workload up sz.setupReps
// times, retires all but the last rig for the heap reading, and measures
// the last one with tracing off.
func runUntraced(o options) (*outcome, error) {
	var setups, heaps []float64
	var r *rig
	for i := range o.sz.setupReps {
		last := i == o.sz.setupReps-1
		var err error
		if r, err = setUp(o, false, last); err != nil {
			return nil, err
		}
		setups = append(setups, r.setupTime.Seconds())
		if !last {
			heaps = append(heaps, r.retire())
		}
	}
	p := r.measure(o.window(1))
	out := &outcome{}
	out.absorb(r, p)
	if len(heaps) == 0 {
		// A single set-up (smoke sizes) has no retired rig to read; the
		// measured one has to do, inputs released.
		heaps = append(heaps, r.retire())
	} else {
		r.close()
	}
	lat, sync, onTime := latencies(p, onTimeLimit[o.workload])
	out.Samples = len(lat)
	out.Metrics = map[string]float64{
		"setup_s":      median(setups),
		"events_per_s": perSecond(p.events, p.wall),
		"score_p50_ms": percentile(lat, 0.50),
		"sync_p50_ms":  percentile(sync, 0.50),
		"on_time_frac": float64(onTime) / float64(max(len(p.samples), 1)),
		"heap_mb":      median(heaps),
	}
	return out, nil
}

// runTraced is one per-layer run: an untraced pass and a traced pass, each
// on its own rig over a share of the window, give the spans, the public
// counters and the tracing overhead; the layer ladder then runs on the two
// rigs' idle models.
func runTraced(o options) (*outcome, error) {
	const passShare, ladderShare = 0.3, 0.4
	plain, err := setUp(o, false, false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	pp := plain.measure(o.window(passShare))
	plain.stop()

	traced, err := setUp(o, true, false)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	dbBefore := traced.db.Stats()
	var appliedBefore int64
	if traced.pipe != nil {
		appliedBefore = traced.pipe.Stats().Processed
	}
	var batcherBefore serve.BatcherStats
	var syncsBefore uint64
	if traced.http() {
		syncsBefore = traced.log.Stats().Syncs
		if batcherBefore, err = traced.batcherStats(); err != nil {
			return nil, err
		}
	}
	tp := traced.measure(o.window(passShare))
	dbAfter := traced.db.Stats()

	m := map[string]float64{}
	for _, name := range layerNames {
		m[name] = 0 // a layer the workload bypasses spends nothing
	}
	// Public counters, read while the rig still runs.
	applied := 0
	if traced.pipe != nil {
		st := traced.pipe.Stats()
		applied = int(st.Processed - appliedBefore)
		m["async.queue_depth_max"] = float64(st.MaxQueueDepth)
		m["async.apply_ms_per_batch"] = ms(st.AsyncMean)
	}
	if traced.http() {
		after, err := traced.batcherStats()
		if err != nil {
			return nil, err
		}
		if flushes := after.Flushes - batcherBefore.Flushes; flushes > 0 {
			m["serve.batch_mean"] = float64(after.Coalesced-batcherBefore.Coalesced) / float64(flushes)
		}
		m["wal.fsyncs"] = float64(traced.log.Stats().Syncs - syncsBefore)
	}
	traced.stop()

	out := &outcome{}
	out.absorb(plain, pp)
	out.absorb(traced, tp)
	lat, sync, _ := latencies(tp, onTimeLimit[o.workload])
	out.Samples = len(lat)

	// Spans joined per operation: wire is what the round trip spent outside
	// ServeHTTP, serve's self time what ServeHTTP spent outside the
	// synchronous link it reported.
	if traced.http() {
		serveNS := make(map[int32]int64)
		for _, s := range traced.tr.recorded() {
			if s.Name == spanServe {
				serveNS[s.Op] = s.End - s.Start
			}
		}
		var wire, self []float64
		for i, s := range tp.samples {
			if d, ok := serveNS[int32(tp.first+i)]; ok && s.ok {
				wire = append(wire, float64(int64(s.rtt)-d)/1e3)
				self = append(self, float64(d-int64(s.sync))/1e3)
			}
		}
		m["serve.wire_us_per_req"] = mean(wire)
		m["serve.self_us_per_req"] = mean(self)
		m["serve.body_kb_per_req"] = float64(tp.bytes) / 1024 / float64(max(len(tp.samples), 1))
	} else if o.workload != wlRecover {
		var self []float64
		for _, s := range tp.samples {
			if s.ok {
				self = append(self, float64(s.latency-s.sync)/1e3)
			}
		}
		m["async.submit_self_us"] = mean(self)
	}
	if waits := sortedCopy(traced.tr.durationsMS(spanQueueWait)); len(waits) > 0 {
		m["async.queue_wait_ms_p50"] = percentile(waits, 0.50)
		m["async.queue_wait_ms_p95"] = percentile(waits, 0.95)
	}
	if tp.events > 0 {
		m["core.allocs_per_event"] = float64(tp.mallocs) / float64(tp.events)
		m["gdb.rpcs_per_event"] = float64(dbAfter.Queries-dbBefore.Queries) / float64(tp.events)
	}
	if applied > 0 {
		m["gdb.sim_ms_per_batch"] = ms(dbAfter.Simulated-dbBefore.Simulated) / float64(applied)
	}
	if n := len(tp.samples); o.workload == wlRecover && n > 0 {
		m["wal.attach_retry_frac"] = float64(tp.retried) / float64(n)
	}
	// Tails of the traced pass: too few samples beyond them in a run this
	// short to repeat within a tenth, so they carry no bound.
	m["client.score_p95_ms"] = percentile(lat, 0.95)
	m["client.score_p99_ms"] = percentile(lat, 0.99)
	m["client.sync_p95_ms"] = percentile(sync, 0.95)
	if o.workload == wlSingleOpen {
		var late []float64
		lateN := 0
		for _, s := range tp.samples {
			late = append(late, ms(s.late))
			if s.late > time.Millisecond {
				lateN++
			}
		}
		m["gen.late_frac"] = float64(lateN) / float64(max(len(late), 1))
		m["gen.late_p99_ms"] = percentile(sortedCopy(late), 0.99)
		// The open loop's throughput is its schedule; the median latency
		// is what tracing could move.
		plainLat, _, _ := latencies(pp, 0)
		if p50 := percentile(plainLat, 0.5); p50 > 0 {
			m["trace.overhead_frac"] = percentile(lat, 0.5)/p50 - 1
		}
	} else if base := perSecond(pp.events, pp.wall); base > 0 {
		m["trace.overhead_frac"] = 1 - perSecond(tp.events, tp.wall)/base
	}

	// The ladder continues the stream where the further of the two passes
	// stopped, in batches the size of the workload's operations.
	size := len(traced.ops[0])
	used := o.sz.warm + size*max(plain.next+len(pp.samples), traced.next+len(tp.samples))
	if o.workload == wlRecover {
		used = o.sz.warm + traced.logged
	}
	stream := traced.ds.Events[min(used, len(traced.ds.Events)):]
	lm, err := runLadder(plain.model, traced.model, stream, size, o.sz, o.seed, traced.dir, o.window(ladderShare))
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		m[k] = v
	}
	if o.traceOut != "" {
		if err := traced.tr.writeTo(filepath.Clean(o.traceOut)); err != nil {
			return nil, err
		}
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", o.workload, k, v)
		}
	}
	out.Metrics = m
	return out, nil
}
