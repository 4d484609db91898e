package scenario

import (
	"fmt"
	"math"

	"apan/internal/core"
	"apan/internal/tgraph"
)

// Violation is a minimal reproducible divergence report: re-running the
// named scenario with Seed reproduces it, and EventIndex locates the first
// diverging event in the streamed portion of the trace (-1 when the
// violation is not tied to a single event, e.g. a digest mismatch).
type Violation struct {
	Invariant  string `json:"invariant"`
	Scenario   string `json:"scenario"`
	Seed       int64  `json:"seed"`
	EventIndex int    `json:"event_index"`
	Detail     string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s: seed=%d event=%d: %s", v.Scenario, v.Invariant, v.Seed, v.EventIndex, v.Detail)
}

// InvariantResult records whether one invariant applied to a scenario and
// whether it held.
type InvariantResult struct {
	Name    string `json:"name"`
	Checked bool   `json:"checked"`
	Passed  bool   `json:"passed"`
}

// Invariant names, as they appear in results and reports.
const (
	InvScoreParity      = "score_parity"
	InvMailboxMonotonic = "mailbox_monotonic"
	InvDropAccounting   = "drop_accounting"
	InvReplayDeterism   = "replay_determinism"
	InvCheckpointReplay = "checkpoint_replay"
	// InvNoTornParams: every served score is attributable to exactly one
	// published parameter version, and published sets stay bitwise intact.
	InvNoTornParams = "no_torn_params"
	// InvFrozenDeterminism: a drift run with the trainer frozen is bitwise
	// deterministic (scores, negative twins and runtime digest).
	InvFrozenDeterminism = "frozen_determinism"
	// InvOnlineAdaptation: after the concept shift, the online-trained run's
	// holdout AP is at least the frozen-parameter run's.
	InvOnlineAdaptation = "online_adaptation"
	// InvKillRecover: after a process kill — clean or mid-record torn write —
	// checkpoint + WAL replay-to-watermark reconstructs a runtime bitwise
	// identical to an uninterrupted run, at the recovery point and at end of
	// stream.
	InvKillRecover = "kill_recover"
	// InvBackendParity: the same direct run on the other graph backend
	// (flat ↔ sharded) reproduces scores and runtime digest bitwise per
	// (seed, scenario).
	InvBackendParity = "backend_parity"
	// InvTenantIsolation: under a flash-crowd aggressor tenant, the victim
	// tenant loses nothing (zero drops, bounded sync p99) while the
	// aggressor is shed at its event-time rate gate — and the whole
	// protocol replays bitwise per (seed, contract).
	InvTenantIsolation = "tenant_isolation"
	// InvTenantAccounting: per-tenant conservation after the final drain —
	// every submission that entered a tenant's ledger is applied or
	// dropped (submitted = applied + dropped), with empty queues.
	InvTenantAccounting = "tenant_accounting"
	// InvEvictionBounded: under a binding cold-state budget, the warm set
	// never exceeds the budget, evicting runs are bitwise deterministic
	// (scores and digest), and the labeled AP stays within a fixed loss
	// bound of the unbounded-memory reference.
	InvEvictionBounded = "eviction_bounded"
	// InvFailover: a log-shipped warm-standby follower, promoted after the
	// leader dies — with clean, torn, fsync-latched and follower-crash
	// failure arms — lands on a batch boundary bitwise identical
	// (RuntimeDigest) to the uninterrupted run, serves the rest of the
	// stream to a bitwise end-of-stream digest, and fences double promotion.
	InvFailover = "failover"
)

// compareScores checks bitwise float32 equality of two per-batch score sets
// and reports the first diverging event. batches supplies the event counts
// that map (batch, offset) back to a global stream index. Dropped batches
// (nil scores) must be dropped in both runs to compare equal.
func compareScores(inv, scen string, seed int64, batches [][]tgraph.Event, ref, got [][]float32, pathA, pathB string) []Violation {
	if len(ref) != len(got) {
		return []Violation{{Invariant: inv, Scenario: scen, Seed: seed, EventIndex: -1,
			Detail: fmt.Sprintf("%s produced %d batches, %s %d", pathA, len(ref), pathB, len(got))}}
	}
	idx := 0
	for b := range ref {
		if (ref[b] == nil) != (got[b] == nil) {
			return []Violation{{Invariant: inv, Scenario: scen, Seed: seed, EventIndex: idx,
				Detail: fmt.Sprintf("batch %d: %s dropped=%v, %s dropped=%v", b, pathA, ref[b] == nil, pathB, got[b] == nil)}}
		}
		if ref[b] != nil && len(ref[b]) != len(got[b]) {
			return []Violation{{Invariant: inv, Scenario: scen, Seed: seed, EventIndex: idx,
				Detail: fmt.Sprintf("batch %d: %s scored %d events, %s %d", b, pathA, len(ref[b]), pathB, len(got[b]))}}
		}
		for i := range ref[b] {
			if math.Float32bits(ref[b][i]) != math.Float32bits(got[b][i]) {
				return []Violation{{Invariant: inv, Scenario: scen, Seed: seed, EventIndex: idx + i,
					Detail: fmt.Sprintf("%s score %v != %s score %v (bits %08x vs %08x)",
						pathA, ref[b][i], pathB, got[b][i],
						math.Float32bits(ref[b][i]), math.Float32bits(got[b][i]))}}
			}
		}
		idx += len(batches[b])
	}
	return nil
}

// checkMailboxes asserts the §3.6 contract on the final store: every node's
// readout is sorted by non-decreasing timestamp, holds at most Slots mails,
// and no timestamp exceeds the trace horizon (a smeared write or torn
// delivery would surface as a wild timestamp).
func checkMailboxes(m *core.Model, scen string, seed int64, maxTime float64) []Violation {
	mbox := m.Mailbox()
	slots, dim := mbox.Slots(), mbox.Dim()
	mails := make([]float32, slots*dim)
	times := make([]float64, slots)
	var vs []Violation
	for n := 0; n < m.NumNodes(); n++ {
		c := mbox.ReadSorted(tgraph.NodeID(n), mails, times)
		if c > slots {
			vs = append(vs, Violation{Invariant: InvMailboxMonotonic, Scenario: scen, Seed: seed, EventIndex: -1,
				Detail: fmt.Sprintf("node %d holds %d mails, capacity %d", n, c, slots)})
			continue
		}
		prev := math.Inf(-1)
		for r := 0; r < c; r++ {
			if times[r] < prev {
				vs = append(vs, Violation{Invariant: InvMailboxMonotonic, Scenario: scen, Seed: seed, EventIndex: -1,
					Detail: fmt.Sprintf("node %d: mailbox readout not time-sorted: slot %d has ts %g after %g", n, r, times[r], prev)})
				break
			}
			if times[r] > maxTime {
				vs = append(vs, Violation{Invariant: InvMailboxMonotonic, Scenario: scen, Seed: seed, EventIndex: -1,
					Detail: fmt.Sprintf("node %d: mail ts %g exceeds trace horizon %g", n, times[r], maxTime)})
				break
			}
			prev = times[r]
		}
	}
	return vs
}

// checkConservation asserts drop accounting: every event offered to the
// system is either applied to the temporal graph or flagged dropped —
// submitted = applied + dropped, with no silent loss or duplication.
func checkConservation(out *runOutcome, batches [][]tgraph.Event, scen string, seed int64) []Violation {
	dropped := out.droppedEvents(batches)
	if out.applied+dropped != out.submitted {
		return []Violation{{Invariant: InvDropAccounting, Scenario: scen, Seed: seed, EventIndex: -1,
			Detail: fmt.Sprintf("submitted %d events, applied %d + dropped %d = %d",
				out.submitted, out.applied, dropped, out.applied+dropped)}}
	}
	return nil
}

// compareTraces asserts the workload generator itself is deterministic:
// bitwise-equal events from equal seeds.
func compareTraces(a, b *Trace, scen string, seed int64) []Violation {
	mk := func(i int, detail string) []Violation {
		return []Violation{{Invariant: InvReplayDeterism, Scenario: scen, Seed: seed, EventIndex: i, Detail: detail}}
	}
	if len(a.Events) != len(b.Events) {
		return mk(-1, fmt.Sprintf("regenerated trace has %d events, first run %d", len(b.Events), len(a.Events)))
	}
	if a.NumNodes != b.NumNodes || a.MaxNodes != b.MaxNodes {
		return mk(-1, fmt.Sprintf("regenerated trace node space %d/%d, first run %d/%d", b.NumNodes, b.MaxNodes, a.NumNodes, a.MaxNodes))
	}
	for i := range a.Events {
		x, y := &a.Events[i], &b.Events[i]
		if x.Src != y.Src || x.Dst != y.Dst || x.Label != y.Label ||
			math.Float64bits(x.Time) != math.Float64bits(y.Time) || len(x.Feat) != len(y.Feat) {
			return mk(i, fmt.Sprintf("event %d differs across regenerations: %v vs %v", i, x, y))
		}
		for j := range x.Feat {
			if math.Float32bits(x.Feat[j]) != math.Float32bits(y.Feat[j]) {
				return mk(i, fmt.Sprintf("event %d feature %d differs across regenerations", i, j))
			}
		}
	}
	return nil
}

// scoreDrift returns the maximum absolute score difference between a
// reference run and another run over the batches both scored — the
// bounded-staleness metric for timing-dependent scenarios where bitwise
// parity is not asserted.
func scoreDrift(ref, got [][]float32) float64 {
	var max float64
	for b := range ref {
		if b >= len(got) || ref[b] == nil || got[b] == nil {
			continue
		}
		for i := range ref[b] {
			if i >= len(got[b]) {
				break
			}
			if d := math.Abs(float64(ref[b][i]) - float64(got[b][i])); d > max {
				max = d
			}
		}
	}
	return max
}
