package core

import (
	"time"

	"apan/internal/mailbox"
	"apan/internal/state"
	"apan/internal/tgraph"
)

// Incremental checkpoint cuts. A durability cut pauses the appliers (the
// apply gate held exclusively) while both stores are cloned; at scale that
// pause is O(all state) and lands on the write path. With
// Config.IncrementalCheckpoints the model retains the previous cut's
// snapshots and asks the stores for dirty-shard-only copies: shards whose
// modification counter is unchanged since the last cut alias the retained
// clone instead of being copied again. Correctness does not depend on
// which code produced the mutation — every store mutator (applies, loads,
// resets, restores, growth) bumps its shard's counter under the shard
// lock, so a stale base can only ever cause extra copying, never a stale
// checkpoint.

// CutStats describes the most recent checkpoint cut: what was copied, what
// was reused, and how long the apply-pause lasted.
type CutStats struct {
	// Incremental is true when the cut ran with a retained base (second
	// and later cuts under Config.IncrementalCheckpoints).
	Incremental bool
	// StateCopied / MailCopied count shards deep-copied during the pause;
	// StateShards / MailShards are the totals.
	StateCopied, StateShards int
	MailCopied, MailShards   int
	// GraphDirty counts graph partitions modified since the previous cut;
	// GraphParts is the partition total. Both are zero when the configured
	// graph backend exposes no partition accounting (flat) —
	// the graph is captured as a zero-copy log prefix either way, so this
	// is reporting, not cost.
	GraphDirty, GraphParts int
	// Events is the cut's watermark: graph events captured.
	Events int
	// Pause is the wall time the apply gate was held exclusively.
	Pause time.Duration
}

// checkpointCut is the cut used by checkpoint saves: runtimeCut semantics
// (batch-aligned, scoring unblocked), plus dirty-shard cloning against the
// retained previous cut when Config.IncrementalCheckpoints is set, plus
// accounting in LastCutStats either way.
func (m *Model) checkpointCut() (st *state.ShardedSnapshot, mb *mailbox.ShardedSnapshot, events []tgraph.Event, numNodes int) {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()

	var base *state.ShardedSnapshot
	var mbBase *mailbox.ShardedSnapshot
	if m.Cfg.IncrementalCheckpoints {
		base, mbBase = m.ckptStBase, m.ckptMbBase
	}

	start := time.Now()
	m.storeMu.RLock()
	m.applyMu.Lock()
	numNodes = m.Cfg.NumNodes
	var stCopied, mbCopied int
	st, stCopied = m.st.SnapshotSharedSince(base)
	mb, mbCopied = m.mbox.SnapshotSharedSince(mbBase)
	// Same graph capture as runtimeCut: the apply gate quiesced writers;
	// the flat backend still wants graphMu for the read itself.
	if m.graphSafe {
		g := m.db.G
		events = g.EventLog()[:g.NumEvents()]
	} else {
		m.graphMu.Lock()
		g := m.db.G
		events = g.EventLog()[:g.NumEvents()]
		m.graphMu.Unlock()
	}
	var gens []uint64
	if sg, ok := m.db.G.(*tgraph.Sharded); ok {
		gens = sg.PartitionGens(make([]uint64, 0, sg.NumPartitions()))
	}
	m.applyMu.Unlock()
	m.storeMu.RUnlock()
	pause := time.Since(start)

	stats := CutStats{
		Incremental: base != nil,
		StateCopied: stCopied, StateShards: m.st.NumShards(),
		MailCopied: mbCopied, MailShards: m.mbox.NumShards(),
		Events: len(events),
		Pause:  pause,
	}
	if gens != nil {
		stats.GraphParts = len(gens)
		for i, g := range gens {
			if m.ckptGGens == nil || i >= len(m.ckptGGens) || m.ckptGGens[i] != g {
				stats.GraphDirty++
			}
		}
		m.ckptGGens = gens
	}
	if m.Cfg.IncrementalCheckpoints {
		m.ckptStBase, m.ckptMbBase = st, mb
	}
	m.lastCut = stats
	return st, mb, events, numNodes
}

// CheckpointCut performs one durability cut and returns its accounting
// without serializing anything — benchmarks use it to measure the
// apply-pause in isolation from checkpoint encoding, and it is also how
// the incremental base is primed before a measured run.
func (m *Model) CheckpointCut() CutStats {
	m.checkpointCut()
	return m.LastCutStats()
}

// LastCutStats reports the most recent checkpoint cut's accounting (the
// zero value before any cut).
func (m *Model) LastCutStats() CutStats {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	return m.lastCut
}
