package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"apan/internal/core"
	"apan/internal/wal"
)

// opSample is what the load generator saw of one operation.
type opSample struct {
	ok      bool
	latency time.Duration // what the caller waited: from the due time in the open loop, else from the start
	rtt     time.Duration // HTTP: from the actual send to the response
	sync    time.Duration // synchronous-link time the system reported for it
	late    time.Duration // open loop: how long after its due time it was sent
}

// pass is what one measured pass over a rig observed.
type pass struct {
	first   int           // operation index of samples[0]
	samples []opSample    // one per operation attempted
	events  int           // events scored and applied; replayed, for recover
	wall    time.Duration // the time those events took
	mallocs uint64        // heap objects allocated by the whole process meanwhile
	bytes   int64         // request body bytes sent
	retried int           // recover: recoveries whose AttachWAL had to be repeated
}

func (p *pass) failed() (n int) {
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// measure runs the rig's workload for the window and verifies what it can
// only verify afterwards.
func (r *rig) measure(window time.Duration) *pass {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var p *pass
	switch r.wl {
	case wlSingleOpen:
		p = r.runOpen(window)
	case wlBatchClosed:
		p = r.runClosedHTTP(window)
	case wlCycle, wlSlowDB:
		p = r.runInProc(window)
	case wlRecover:
		p = r.runRecover(window)
	}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	r.checkDrained()
	return p
}

// spinMargin is how long before a due time the open loop stops sleeping and
// starts yielding in a loop instead: on the reference box a sleep overshoots
// by up to 1.2 ms, which would otherwise be added to every latency.
const spinMargin = 2 * time.Millisecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// runOpen is the open loop: request i is due at start + i/rate whatever
// became of the requests before it, and its latency counts from then. Each
// client owns one connection and every clients-th request.
func (r *rig) runOpen(window time.Duration) *pass {
	n := min(len(r.ops)-r.next, int(r.sz.openRate*window.Seconds()))
	p := &pass{first: r.next, samples: make([]opSample, n)}
	period := float64(time.Second) / r.sz.openRate
	start := time.Now().Add(10 * time.Millisecond)
	giveUp := start.Add(window + 5*time.Second)
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post := r.poster(c)
			for i := c; i < n; i += r.clients {
				due := start.Add(time.Duration(float64(i) * period))
				if due.After(giveUp) || time.Now().After(giveUp) {
					return // the rest stay failed: never sent
				}
				waitUntil(due)
				sent := time.Now()
				resp, err := post.post(r.next + i)
				end := time.Now()
				s := &p.samples[i]
				s.late = sent.Sub(due)
				if err != nil {
					r.fail("request %d: %v", r.next+i, err)
					continue
				}
				*s = opSample{ok: true, latency: end.Sub(due), rtt: end.Sub(sent), late: s.late,
					sync: time.Duration(resp.SyncMicros) * time.Microsecond}
				if r.tr != nil {
					r.tr.record(spanClient, r.next+i, "", sent, end)
				}
			}
		}()
	}
	wg.Wait()
	r.finishHTTP(p, start)
	return p
}

// runClosedHTTP is the closed loop over HTTP: each client posts its next
// batch as soon as the previous one is answered, until the window ends.
func (r *rig) runClosedHTTP(window time.Duration) *pass {
	p := &pass{first: r.next, samples: make([]opSample, len(r.ops)-r.next)}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post := r.poster(c)
			for time.Since(start) < window {
				i := int(next.Add(1) - 1)
				if i >= len(p.samples) {
					return
				}
				sent := time.Now()
				resp, err := post.post(r.next + i)
				end := time.Now()
				if err != nil {
					r.fail("request %d: %v", r.next+i, err)
					continue
				}
				p.samples[i] = opSample{ok: true, latency: end.Sub(sent), rtt: end.Sub(sent),
					sync: time.Duration(resp.SyncMicros) * time.Microsecond}
				if r.tr != nil {
					r.tr.record(spanClient, r.next+i, "", sent, end)
				}
			}
		}()
	}
	wg.Wait()
	p.samples = p.samples[:min(int(next.Load()), len(p.samples))]
	r.finishHTTP(p, start)
	return p
}

// finishHTTP drains the pipeline, so that every accepted event is applied
// before the clock stops, and totals the pass.
func (r *rig) finishHTTP(p *pass, start time.Time) {
	if err := r.pipe.Drain(context.Background()); err != nil {
		r.fail("drain: %v", err)
	}
	p.wall = time.Since(start)
	for i, s := range p.samples {
		p.bytes += int64(len(r.bodies[p.first+i]))
		if s.ok {
			p.events += len(r.ops[p.first+i])
		}
	}
	r.accepted += p.events
}

// runInProc is the closed loop without HTTP: each client calls
// Pipeline.Submit batch after batch. A client stops submitting when what is
// queued would take the rest of the window to apply, so that the drain
// ends the pass on time even when the asynchronous link is the slow one.
func (r *rig) runInProc(window time.Duration) *pass {
	p := &pass{first: r.next, samples: make([]opSample, len(r.ops)-r.next)}
	ctx := context.Background()
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st := r.pipe.Stats()
				if time.Since(start)+time.Duration(st.QueueDepth+1)*st.AsyncMean >= window {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(p.samples) {
					return
				}
				op := r.next + i
				t0 := time.Now()
				scores, lat, err := r.pipe.Submit(ctx, r.ops[op])
				t1 := time.Now()
				if err == nil {
					err = checkScores(scores, len(r.ops[op]))
				}
				if err != nil {
					r.fail("batch %d: %v", op, err)
					continue
				}
				p.samples[i] = opSample{ok: true, latency: t1.Sub(t0), sync: lat}
				if r.tr != nil {
					r.tr.markSubmitted(op, t1)
					r.tr.record(spanSubmit, op, "", t0, t1)
				}
			}
		}()
	}
	wg.Wait()
	p.samples = p.samples[:min(int(next.Load()), len(p.samples))]
	if err := r.pipe.Drain(ctx); err != nil {
		r.fail("drain: %v", err)
	}
	p.wall = time.Since(start)
	for i, s := range p.samples {
		if s.ok {
			p.events += len(r.ops[p.first+i])
		}
	}
	r.accepted += p.events
	return p
}

// recovery is the timing of one recovery, whole and by stage.
type recovery struct {
	total, load, replay time.Duration
	replayed            int
	retried             bool // AttachWAL failed at least once and was repeated
}

// attachPatience is how long a recovery keeps retrying AttachWAL.
const attachPatience = 500 * time.Millisecond

// recoverOnce brings a fresh model back from the leader's checkpoint and
// log, the way apan-serve -load -wal starts, and checks that it ends up
// bit for bit where the leader stopped. op ≥ 0 also records its spans.
func (r *rig) recoverOnce(op int, walDir string) (rec recovery, err error) {
	m, err := core.New(r.cfg) // untimed: the empty model of a new process
	if err != nil {
		return rec, err
	}
	t0 := time.Now()
	if err := m.LoadCheckpointFile(r.ckptPath); err != nil {
		return rec, err
	}
	t1 := time.Now()
	l, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncInterval})
	if err != nil {
		return rec, err
	}
	defer func() {
		m.DetachWAL()
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}()
	t2 := time.Now()
	if rec.replayed, err = m.RecoverWAL(l); err != nil {
		return rec, err
	}
	t3 := time.Now()
	// With the interval policy the log's background sync races the index
	// alignment inside AttachWAL: at the seed about one attach in ten
	// fails with "AlignTo with appends in flight". Nothing was changed by
	// the failed call, so the workload does what an operator would and
	// tries again. The retries are inside the recovery's time, and the
	// share of recoveries that needed one is wal.attach_retry_frac.
	for err = m.AttachWAL(l); err != nil; err = m.AttachWAL(l) {
		if time.Since(t3) > attachPatience {
			return rec, err
		}
		rec.retried = true
		runtime.Gosched()
	}
	t4 := time.Now()
	rec.total, rec.load, rec.replay = t4.Sub(t0), t1.Sub(t0), t3.Sub(t2)
	if r.tr != nil && op >= 0 {
		r.tr.record(spanRecover, op, "", t0, t4)
		r.tr.record(spanCkptLoad, op, spanRecover, t0, t1)
		r.tr.record(spanWALOpen, op, spanRecover, t1, t2)
		r.tr.record(spanReplay, op, spanRecover, t2, t3)
		r.tr.record(spanAttach, op, spanRecover, t3, t4)
	}
	if rec.replayed != r.logged {
		return rec, fmt.Errorf("replayed %d events, the leader logged %d", rec.replayed, r.logged)
	}
	if d := m.RuntimeDigest(); d != r.digest {
		return rec, fmt.Errorf("recovered digest %016x, the leader's was %016x", d, r.digest)
	}
	return rec, nil
}

// runRecover repeats recoveries into fresh models until the window ends,
// one recoverer per client goroutine, each with its own copy of the log.
// Only the recoveries themselves are timed; building the empty model and
// the digest check in between are not. Recovering on every core at once is
// what keeps the figures steady on the reference box: see README,
// "Deviations".
func (r *rig) runRecover(window time.Duration) *pass {
	p := &pass{}
	batches := max(r.logged/r.sz.batch, 1)
	var mu sync.Mutex
	var busy time.Duration // timed recovery time, summed over the recoverers
	var wg sync.WaitGroup
	start := time.Now()
	for c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < r.sz.minRecoveries || time.Since(start) < window; k++ {
				rec, err := r.recoverOnce(c+k*r.clients, r.walDirs[c])
				mu.Lock()
				if err != nil {
					p.samples = append(p.samples, opSample{})
				} else {
					// The log replays through InferBatch + ApplyInference in
					// series, so its synchronous-link time is the replay's
					// share of one batch.
					p.samples = append(p.samples, opSample{ok: true, latency: rec.total, sync: rec.replay / time.Duration(batches)})
					p.events += rec.replayed
					if rec.retried {
						p.retried++
					}
					busy += rec.total
				}
				mu.Unlock()
				if err != nil {
					r.fail("recovery %d: %v", c+k*r.clients, err)
				}
			}
		}()
	}
	wg.Wait()
	// Each recoverer was busy for its share of the summed time, so events
	// over that share is the rate of all of them together.
	p.wall = busy / time.Duration(r.clients)
	return p
}
