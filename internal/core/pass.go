package core

import (
	"fmt"

	"apan/internal/nn"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// pass bundles every buffer one synchronous-link pass needs — batch plan,
// EncodeInput gather buffers, timestamp scratch and the reusable inference
// tape with its matrix pool — so a warm pass performs zero heap allocation.
// Score, Embed and Explain check one out of the model's freelist and put it
// back before they return, so a pass never leaves core and is never shared
// between goroutines while checked out; the freelist mutex provides the
// happens-before edge between a releasing pass and the next one. A training
// or evaluation Step embeds its own.
type pass struct {
	Plan Plan

	in   EncodeInput
	ts   []float64 // ReadSorted timestamp scratch, one node's slots
	pool tensor.Pool
	tape *nn.Tape // inference tape over pool
}

// init points the inference tape at the pass's own pool; the pass must not
// be copied afterwards.
func (p *pass) init() { p.tape = nn.NewInferenceTape(&p.pool) }

// acquirePass checks a pass out of the model's freelist, building a new one
// when the list is empty.
func (m *Model) acquirePass() *pass {
	m.passMu.Lock()
	defer m.passMu.Unlock()
	if n := len(m.passFree); n > 0 {
		p := m.passFree[n-1]
		m.passFree = m.passFree[:n-1]
		return p
	}
	p := new(pass)
	p.init()
	return p
}

// releasePass recycles the tape's matrices into the pass's pool and returns
// the pass to the freelist.
func (m *Model) releasePass(p *pass) {
	p.tape.Reset()
	m.passMu.Lock()
	m.passFree = append(m.passFree, p)
	m.passMu.Unlock()
}

// gather reads z(t−) and the timestamp-sorted mailboxes of nodes at the
// given query times into in, under the shared store lock: the one read every
// pass encodes from. It reports false, having read nothing, when a node lies
// outside the node space, which is checked under the lock because
// RestoreRuntime may shrink it. All buffers, ts included, are grown in
// place, so a steady-state caller gathers without allocating; mail rows and
// time deltas past each node's count are zeroed, so the bundle equals
// ReadInputs' fresh one.
func (m *Model) gather(in *EncodeInput, ts *[]float64, nodes []tgraph.NodeID, times []float64) bool {
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	for _, n := range nodes {
		if n < 0 || int(n) >= m.Cfg.NumNodes {
			return false
		}
	}
	b, d, sl := len(nodes), m.st.Dim(), m.mbox.Slots()
	in.Nodes, in.Times = nodes, times
	in.ZPrev = growMatrix(in.ZPrev, b, d)
	in.Mails = growMatrix(in.Mails, b*sl, d)
	in.DTs = grow(in.DTs, b*sl)
	in.Counts = grow(in.Counts, b)
	*ts = grow(*ts, sl)
	fillInputs(m.st, m.mbox, nodes, times, in, *ts)
	return true
}

// GatherInputsInto is gather into the caller's bundle and timestamp scratch,
// panicking when a node lies outside the node space: the read Score, Embed
// and Step encode from, which blocks serving no more than any other reader.
func (m *Model) GatherInputsInto(in *EncodeInput, ts *[]float64, nodes []tgraph.NodeID, times []float64) {
	if !m.gather(in, ts, nodes, times) {
		panic(fmt.Sprintf("core: gather: a node lies outside [0,%d)", m.NumNodes()))
	}
}

// growMatrix resizes mx (allocating it when nil) to rows×cols through grow.
// Contents are unspecified — the caller must overwrite every row it reads.
func growMatrix(mx *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if mx == nil {
		mx = new(tensor.Matrix)
	}
	mx.Rows, mx.Cols, mx.Data = rows, cols, grow(mx.Data, rows*cols)
	return mx
}

// grow reslices s to length n, reallocating (without preserving contents)
// only when capacity falls short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
