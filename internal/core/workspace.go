package core

import (
	"apan/internal/mailbox"
	"apan/internal/nn"
	"apan/internal/state"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// inferWorkspace bundles every buffer one synchronous-link pass needs —
// batch plan, EncodeInput gather buffers, the reusable inference tape with
// its matrix pool and timestamp scratch — so a warm pass performs zero heap
// allocation. Score, Embed and Explain check one out of the model's
// freelist and release it before they return, so a workspace never leaves
// core and is never shared between goroutines while checked out; the
// freelist mutex provides the happens-before edge between a releasing pass
// and the next one.
type inferWorkspace struct {
	owner *Model // whose freelist release returns to

	pool tensor.Pool // backing allocator for the tape and gather matrices
	tape *nn.Tape

	plan   Plan
	in     EncodeInput
	dts    []float32
	counts []int
	ts     []float64 // per-lane ReadSorted timestamp scratch (workers·slots)
}

// newInferWorkspace builds a workspace owned by m.
func (m *Model) newInferWorkspace() *inferWorkspace {
	ws := &inferWorkspace{owner: m}
	ws.tape = nn.NewInferenceTape(&ws.pool)
	return ws
}

// acquireWorkspace checks a workspace out of the model's freelist, building
// a new one when the list is empty.
func (m *Model) acquireWorkspace() *inferWorkspace {
	m.wsMu.Lock()
	if n := len(m.wsFree); n > 0 {
		ws := m.wsFree[n-1]
		m.wsFree[n-1] = nil
		m.wsFree = m.wsFree[:n-1]
		m.wsMu.Unlock()
		return ws
	}
	m.wsMu.Unlock()
	return m.newInferWorkspace()
}

// release recycles the workspace: the tape returns its matrices to the
// pool, the gather matrices follow, and the workspace goes back to the
// model.
func (ws *inferWorkspace) release() {
	ws.tape.Reset()
	ws.pool.Put(ws.in.ZPrev)
	ws.pool.Put(ws.in.Mails)
	ws.in = EncodeInput{}
	m := ws.owner
	m.wsMu.Lock()
	m.wsFree = append(m.wsFree, ws)
	m.wsMu.Unlock()
}

// gather fills ws.in with z(t−) and the sorted mailboxes of nodes, reusing
// the workspace buffers (see gatherInto for the semantics).
func (ws *inferWorkspace) gather(st *state.Store, mb *mailbox.Store, nodes []tgraph.NodeID, times []float64, workers int) {
	b := len(nodes)
	d := st.Dim()
	m := mb.Slots()
	lanes := workers
	if lanes < 1 {
		lanes = 1
	}
	ws.in.Nodes = nodes
	ws.in.Times = times
	// GetRaw leaves reused storage unzeroed: ZPrev rows are fully
	// overwritten by CopyTo, and the Mails rows beyond a node's mail count
	// are masked out of attention (counts) and never influence any output.
	ws.in.ZPrev = ws.pool.GetRaw(b, d)
	ws.in.Mails = ws.pool.GetRaw(b*m, d)
	ws.dts = grow(ws.dts, b*m)
	ws.counts = grow(ws.counts, b)
	ws.ts = grow(ws.ts, lanes*m)
	in := &ws.in
	in.DTs = ws.dts[:b*m]
	clear(in.DTs) // only valid slots are written below
	in.Counts = ws.counts[:b]
	gatherInto(st, mb, nodes, times, workers, in, ws.ts)
}

// grow reslices s to length n, reallocating (without preserving contents)
// only when capacity falls short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
