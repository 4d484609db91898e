package serve

import (
	"context"
	"sync"
	"time"

	"apan/internal/async"
	"apan/internal/tgraph"
)

// Batcher coalesces concurrent single-event score requests into one
// Pipeline.Submit call — the server-side micro-batching that lets the
// synchronous link run toward its batch sweet spot (paper Table 5, batch ≈
// 200) even when every caller sends one event at a time.
//
// Policy: flush when a lane is free, coalesce while lanes are busy. A
// request that finds a flush lane free is scored at once, alone if need be;
// requests that arrive while every lane is busy accumulate and ride one
// flush the moment a lane frees (at most maxBatch per flush). Batches thus
// form from the load the batcher observes, and an idle server adds no wait.
//
// Up to `conc` flushes may score in parallel (the pipeline's synchronous
// link is concurrent); with conc=1 the batcher is
// strictly serialized and batch sizes converge on the number of in-flight
// clients.
type Batcher struct {
	pipe     *async.Pipeline
	maxBatch int
	conc     int

	reqs chan batchReq
	done chan struct{}

	// lifeMu protects reqs against send-after-close, mirroring the
	// pipeline's shutdown discipline.
	lifeMu sync.RWMutex

	mu        sync.Mutex
	closed    bool
	pending   int // requests the loop holds behind busy lanes
	flushes   int64
	coalesced int64
}

type batchReq struct {
	ev   tgraph.Event
	ctx  context.Context
	resp chan batchResp
}

type batchResp struct {
	score float32
	lat   time.Duration
	size  int
	err   error
}

// BatcherStats reports micro-batching effectiveness. Pending is a gauge:
// the requests waiting behind busy lanes right now, which the next flush
// will carry.
type BatcherStats struct {
	Flushes   int64   `json:"flushes"`
	Coalesced int64   `json:"coalesced_events"`
	MeanBatch float64 `json:"mean_batch"`
	Pending   int     `json:"pending"`
}

// NewBatcher starts a micro-batcher over pipe. maxBatch ≤ 0 defaults to
// 200; conc ≤ 0 defaults to 1 (serialized flushes).
func NewBatcher(pipe *async.Pipeline, maxBatch, conc int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = 200
	}
	if conc <= 0 {
		conc = 1
	}
	b := &Batcher{
		pipe:     pipe,
		maxBatch: maxBatch,
		conc:     conc,
		reqs:     make(chan batchReq, 4*maxBatch),
		done:     make(chan struct{}),
	}
	go b.loop()
	return b
}

// Score submits one event through the coalescing path and blocks until its
// batch has been scored or ctx is done. It returns the event's score, the
// batch's synchronous latency, and the size of the batch it rode in.
//
// Cancellation caveat: requests whose ctx is already done when their batch
// flushes are dropped without touching the model, but a ctx that expires
// after the flush has started only abandons the wait — the event may still
// be scored and applied. A caller that got ctx.Err() back must therefore
// treat the submission as indeterminate, not retry it blindly (unlike
// Pipeline.Submit, whose cancellation guarantee is exact).
func (b *Batcher) Score(ctx context.Context, ev tgraph.Event) (float32, time.Duration, int, error) {
	req := batchReq{ev: ev, ctx: ctx, resp: make(chan batchResp, 1)}

	b.lifeMu.RLock()
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		b.lifeMu.RUnlock()
		return 0, 0, 0, async.ErrClosed
	}
	select {
	case b.reqs <- req:
		b.lifeMu.RUnlock()
	case <-ctx.Done():
		b.lifeMu.RUnlock()
		return 0, 0, 0, ctx.Err()
	}

	select {
	case r := <-req.resp:
		return r.score, r.lat, r.size, r.err
	case <-ctx.Done():
		return 0, 0, 0, ctx.Err()
	}
}

// loop is the dispatcher. Up to b.conc flushes run at a time. A request that
// finds a lane free launches at once; requests that arrive while every lane
// is busy accumulate and launch together the moment one completes, so under
// sustained concurrency the batch size converges on the number of in-flight
// clients divided by the lane count, with no idle stalls and no timer.
func (b *Batcher) loop() {
	defer close(b.done)
	var (
		pending  []batchReq
		inflight int                           // flushes currently running
		flushed  = make(chan struct{}, b.conc) // one signal per finished flush
		reqs     = b.reqs
	)
	// launchAll starts flushes of up to maxBatch while lanes and requests
	// remain, and publishes what is left waiting.
	launchAll := func() {
		for inflight < b.conc && len(pending) > 0 {
			n := min(len(pending), b.maxBatch)
			batch := pending[:n:n]
			pending = append([]batchReq(nil), pending[n:]...)
			inflight++
			go func() {
				b.flush(batch)
				flushed <- struct{}{}
			}()
		}
		b.mu.Lock()
		b.pending = len(pending)
		b.mu.Unlock()
	}
	for {
		select {
		case r, ok := <-reqs:
			if ok {
				pending = append(pending, r)
			} else {
				reqs = nil // closed: stop receiving, drain what is pending
			}
		case <-flushed:
			inflight--
		}
		launchAll()
		if reqs == nil && inflight == 0 {
			return // closed, and launchAll left nothing pending
		}
	}
}

func (b *Batcher) flush(pending []batchReq) {
	// Drop requests whose caller already gave up: their events must not
	// mutate model state the caller believes was never touched.
	live := pending[:0]
	for _, r := range pending {
		if err := r.ctx.Err(); err != nil {
			r.resp <- batchResp{err: err}
			continue
		}
		live = append(live, r)
	}
	pending = live
	if len(pending) == 0 {
		return
	}
	events := make([]tgraph.Event, len(pending))
	for i, r := range pending {
		events[i] = r.ev
	}
	scores, lat, err := b.pipe.Submit(context.Background(), events)
	b.mu.Lock()
	b.flushes++
	b.coalesced += int64(len(pending))
	b.mu.Unlock()
	for i, r := range pending {
		resp := batchResp{lat: lat, size: len(pending), err: err}
		if err == nil {
			resp.score = scores[i]
		}
		r.resp <- resp // buffered: never blocks, even if the caller left
	}
}

// Stats reports flush counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BatcherStats{Flushes: b.flushes, Coalesced: b.coalesced, Pending: b.pending}
	if st.Flushes > 0 {
		st.MeanBatch = float64(st.Coalesced) / float64(st.Flushes)
	}
	return st
}

// Close flushes queued requests and stops the loop. Subsequent Score calls
// return async.ErrClosed.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()

	b.lifeMu.Lock()
	close(b.reqs)
	b.lifeMu.Unlock()
	<-b.done
}
