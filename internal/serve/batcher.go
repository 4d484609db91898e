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
// Policy: flush when the lane is free, coalesce while it is busy. A request
// that finds no flush in flight is scored at once, alone if need be;
// requests that arrive while a flush is in flight accumulate and ride the
// next one the moment it finishes (at most maxBatch per flush). Batches
// thus form from the load the batcher observes, batch sizes converge on
// the number of in-flight clients, and an idle server adds no wait.
type Batcher struct {
	pipe *async.Pipeline

	reqs chan batchReq
	done chan struct{}

	// lifeMu protects reqs against send-after-close, mirroring the
	// pipeline's shutdown discipline.
	lifeMu sync.RWMutex

	mu        sync.Mutex
	closed    bool
	pending   int // requests the loop holds behind the flush in flight
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
// the requests waiting behind the flush in flight right now, which the
// next flush will carry.
type BatcherStats struct {
	Flushes   int64   `json:"flushes"`
	Coalesced int64   `json:"coalesced_events"`
	MeanBatch float64 `json:"mean_batch"`
	Pending   int     `json:"pending"`
}

// maxBatch caps one flush at paper Table 5's throughput sweet spot.
const maxBatch = 200

// NewBatcher starts a micro-batcher over pipe.
func NewBatcher(pipe *async.Pipeline) *Batcher {
	b := &Batcher{
		pipe: pipe,
		reqs: make(chan batchReq, 4*maxBatch),
		done: make(chan struct{}),
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

// loop is the dispatcher. One flush runs at a time: a request that finds
// none in flight launches at once; requests that arrive meanwhile
// accumulate and launch together the moment it completes, with no idle
// stalls and no timer.
func (b *Batcher) loop() {
	defer close(b.done)
	var (
		pending []batchReq
		busy    bool // a flush is in flight
		flushed = make(chan struct{}, 1)
		reqs    = b.reqs
	)
	for {
		select {
		case r, ok := <-reqs:
			if ok {
				pending = append(pending, r)
			} else {
				reqs = nil // closed: stop receiving, drain what is pending
			}
		case <-flushed:
			busy = false
		}
		if !busy && len(pending) > 0 {
			n := min(len(pending), maxBatch)
			batch := pending[:n:n]
			pending = append([]batchReq(nil), pending[n:]...)
			busy = true
			go func() {
				b.flush(batch)
				flushed <- struct{}{}
			}()
		}
		b.mu.Lock()
		b.pending = len(pending)
		b.mu.Unlock()
		if reqs == nil && !busy {
			return // closed, and nothing is left pending
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
