package core

import "apan/internal/tgraph"

// Explanation reports how much each mail in a node's current mailbox
// contributes to the node's embedding — the interpretability mechanism of
// paper §3.6: because mails store the full interaction detail
// (z_i, e_ij, z_j), the attention weight over a mail identifies which past
// interaction drives the node's next decision.
type Explanation struct {
	Node tgraph.NodeID
	// Time is the query time of the explaining pass: the timestamp of the
	// node's newest mail, so that mail has Δt = 0. It matters only under
	// PositionalTime, where the weights depend on the time deltas.
	Time float64
	// ParamVersion is the published parameter version the explaining pass
	// ran with, pinned at entry.
	ParamVersion uint64
	// MailWeights[i] is the attention probability on the i-th mail (oldest
	// first, timestamp order), averaged over heads. Sums to 1.
	MailWeights []float32
	// PerHead[h][i] is the unaveraged weight of head h on mail i.
	PerHead [][]float32
}

// Explain computes node n's explanation on demand: one forward pass over
// n's current state and mailbox with the published parameters, queried at
// the timestamp of n's newest mail. Its per-head weights equal, bit for bit,
// n's attention row in a batch pass over the same state with n at that
// time. ok is false when n lies outside the node space or has no mail.
// Explain reads only the node stores — never the graph — and is safe for
// concurrent use with scoring, applies and SwapParams.
func (m *Model) Explain(n tgraph.NodeID) (*Explanation, bool) {
	pv := m.cur.Load()
	ps := m.acquirePass()
	defer m.releasePass(ps)
	if !m.gather(&ps.in, &ps.ts, []tgraph.NodeID{n}, []float64{0}) || ps.in.Counts[0] == 0 {
		return nil, false
	}
	// Re-anchor the time deltas at the newest mail. The gather leaves the
	// node's sorted mail timestamps in ps.ts, and the subtraction is the
	// gather's own, so a batch pass at time t computes the same deltas.
	c := ps.in.Counts[0]
	t := ps.ts[c-1]
	for s := range c {
		ps.in.DTs[s] = float32(t - ps.ts[s])
	}
	_, att := pv.enc.Forward(ps.tape, &ps.in)
	heads, slots := att.Heads(), att.Slots()
	ex := &Explanation{Node: n, Time: t, ParamVersion: pv.set.Version(),
		MailWeights: make([]float32, c), PerHead: make([][]float32, heads)}
	for h := range heads {
		ex.PerHead[h] = append([]float32(nil), att.Weights[h*slots:h*slots+c]...)
		for i, w := range ex.PerHead[h] {
			ex.MailWeights[i] += w / float32(heads)
		}
	}
	return ex, true
}
