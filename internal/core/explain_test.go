package core

import (
	"math"
	"sync"
	"testing"

	"apan/internal/nn"
	"apan/internal/tgraph"
)

// referenceAttention is the offline forward's attention over nodes at
// times: a fresh zero-filled gather and a fresh tape over the published
// parameters, no pooled or recycled storage.
func referenceAttention(m *Model, nodes []tgraph.NodeID, times []float64) *nn.Attention {
	in := ReadInputs(m.st, m.mbox, nodes, times)
	_, att := m.cur.Load().enc.Forward(nn.NewTape(), in)
	return att
}

// sameAttentionRow reports whether ex's per-head weights equal, bit for
// bit, query q's row of att over ex's mails.
func sameAttentionRow(t *testing.T, ex *Explanation, att *nn.Attention, q int) bool {
	t.Helper()
	if len(ex.PerHead) != att.Heads() {
		t.Logf("node %d: %d heads, want %d", ex.Node, len(ex.PerHead), att.Heads())
		return false
	}
	for h, row := range ex.PerHead {
		for i, w := range row {
			if math.Float32bits(w) != math.Float32bits(att.Weight(q, h, i)) {
				t.Logf("node %d head %d mail %d: %v, batch row has %v", ex.Node, h, i, w, att.Weight(q, h, i))
				return false
			}
		}
	}
	return true
}

// sameExplanation reports whether two explanations are bit-identical.
func sameExplanation(a, b *Explanation) bool {
	if a.Node != b.Node || math.Float64bits(a.Time) != math.Float64bits(b.Time) ||
		a.ParamVersion != b.ParamVersion || len(a.PerHead) != len(b.PerHead) ||
		len(a.MailWeights) != len(b.MailWeights) {
		return false
	}
	for i := range a.MailWeights {
		if math.Float32bits(a.MailWeights[i]) != math.Float32bits(b.MailWeights[i]) {
			return false
		}
	}
	for h := range a.PerHead {
		for i := range a.PerHead[h] {
			if math.Float32bits(a.PerHead[h][i]) != math.Float32bits(b.PerHead[h][i]) {
				return false
			}
		}
	}
	return true
}

// newestMail returns the timestamp of n's newest mail, read straight from
// the mailbox.
func newestMail(m *Model, n tgraph.NodeID) (float64, bool) {
	buf := make([]float32, m.Cfg.Slots*m.Cfg.EdgeDim)
	ts := make([]float64, m.Cfg.Slots)
	c := m.mbox.ReadSorted(n, buf, ts)
	if c == 0 {
		return 0, false
	}
	return ts[c-1], true
}

// TestExplainAfterAnotherBatch: a node's explanation does not depend on
// which batch was scored last. Batch A scores n, batch B — scored after A,
// with no apply in between — does not name n; Explain(n) must still answer
// with A's attention row for n, bit for bit.
func TestExplainAfterAnotherBatch(t *testing.T) {
	m, batch, _ := buildWarm(t, nil, 5)
	n := batch[0].Src
	var other []tgraph.Event
	for _, ev := range batch[1:] {
		if ev.Src != n && ev.Dst != n {
			other = append(other, ev)
		}
	}
	if len(other) == 0 {
		t.Fatal("every event names the probe node; no batch B to score")
	}
	planA := planOf(batch[:1])
	wantA := referenceAttention(m, planA.Nodes, planA.Times)

	var p Pending
	m.Score(batch[:1], &p)
	m.Score(other, &p)
	ex, ok := m.Explain(n)
	if !ok {
		t.Fatalf("Explain(%d) found nothing after a batch without it", n)
	}
	if !sameAttentionRow(t, ex, wantA, planA.rowOf[n]) {
		t.Fatal("explanation differs from batch A's attention row")
	}
}

// TestExplainEqualsBatchRow: for every node of a batch that has mail, under
// each positional mode, Explain's per-head weights equal, bit for bit, the
// node's row of a batch forward that queries each node at its
// Explanation.Time — the timestamp of its newest mail.
func TestExplainEqualsBatchRow(t *testing.T) {
	for _, pos := range []PositionalMode{PositionalLearned, PositionalTime, PositionalNone} {
		for seed := int64(1); seed <= 5; seed++ {
			m, batch, _ := buildWarm(t, func(c *Config) { c.Positional = pos }, seed)
			plan := planOf(batch)
			var nodes []tgraph.NodeID
			var times []float64
			var exs []*Explanation
			for _, n := range plan.Nodes {
				ex, ok := m.Explain(n)
				newest, hasMail := newestMail(m, n)
				if ok != hasMail {
					t.Fatalf("pos=%d seed=%d node %d: Explain ok=%v, mailbox has mail=%v", pos, seed, n, ok, hasMail)
				}
				if !ok {
					continue
				}
				if ex.Time != newest || ex.ParamVersion != m.ParamVersion() {
					t.Fatalf("pos=%d seed=%d node %d: time %v version %d, want %v and %d",
						pos, seed, n, ex.Time, ex.ParamVersion, newest, m.ParamVersion())
				}
				nodes, times, exs = append(nodes, n), append(times, ex.Time), append(exs, ex)
			}
			if len(exs) == 0 {
				t.Fatalf("pos=%d seed=%d: no batch node has mail", pos, seed)
			}
			att := referenceAttention(m, nodes, times)
			for q, ex := range exs {
				if !sameAttentionRow(t, ex, att, q) {
					t.Fatalf("pos=%d seed=%d: explanation differs from the batch row", pos, seed)
				}
			}
		}
	}
}

// TestExplainDeterministicUnderScoring: while other goroutines score other
// batches, repeated Explain calls for one node return bit-identical
// explanations. Scoring mutates nothing Explain reads. Run under -race.
func TestExplainDeterministicUnderScoring(t *testing.T) {
	m, batch, dirty := buildWarm(t, nil, 7)
	n := batch[0].Src
	want, ok := m.Explain(n)
	if !ok {
		t.Fatalf("no explanation for node %d", n)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	defer wg.Wait()
	defer close(done)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(evs []tgraph.Event) {
			defer wg.Done()
			var p Pending
			for {
				select {
				case <-done:
					return
				default:
					m.Score(evs, &p)
				}
			}
		}(dirty[g*30 : g*30+40])
	}
	rounds := 300
	if testing.Short() || raceEnabled {
		rounds = 60
	}
	for i := 0; i < rounds; i++ {
		if got, ok := m.Explain(n); !ok || !sameExplanation(got, want) {
			t.Fatalf("round %d: explanation changed under concurrent scoring (ok=%v)", i, ok)
		}
	}
}
