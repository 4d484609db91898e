package core

import (
	"fmt"
	"math"

	"apan/internal/tgraph"
	"apan/internal/wal"
)

// Recovery glue between the model and the write-ahead log: a crashed
// replica comes back as checkpoint + replay-to-watermark. The checkpoint
// restores parameters and streaming state as of its cut; RecoverWAL then
// re-applies every logged batch past the cut. The log is physical: a record
// carries the embeddings the synchronous link computed for the batch, so
// re-applying it is the asynchronous link alone — state writes, graph
// insert, mail propagation, eviction — and reconstructs node state,
// mailboxes and the graph exactly as the uninterrupted process had them,
// bitwise, whatever parameters or kernel scored the batch and whatever the
// recovering process would score it with now. Inference is not run, so
// nothing has to make it repeatable.

// RecoverWAL re-applies the log's records past the model's current graph
// watermark (typically the checkpoint just loaded; a fresh model replays
// from zero) through ReplayBatch. Returns the number of events re-applied.
//
// The model must not have a WAL attached (replay would re-log every batch);
// attach after recovery, which also aligns the log to the recovered
// watermark. Replay must not race serving — run it before the pipeline
// starts.
func (m *Model) RecoverWAL(l *wal.Log) (int, error) {
	if m.WAL() != nil {
		return 0, fmt.Errorf("core: recover with a WAL attached would re-log the replay — detach first")
	}
	replayed := 0
	err := l.ReplayRecords(uint64(m.GraphEvents()), func(rec wal.Record) error {
		if err := m.ReplayBatch(rec); err != nil {
			return err
		}
		replayed += len(rec.Events)
		return nil
	})
	if err != nil {
		return replayed, fmt.Errorf("core: wal recovery: %w", err)
	}
	return replayed, nil
}

// CheckEvents returns an error naming the first event with a node id
// outside [0, limit) or a feature vector that is not EdgeDim long: the
// shape every batch must have before it is scored, logged or replayed.
func (m *Model) CheckEvents(events []tgraph.Event, limit int) error {
	for i, ev := range events {
		if ev.Src < 0 || ev.Dst < 0 || int(ev.Src) >= limit || int(ev.Dst) >= limit || len(ev.Feat) != m.Cfg.EdgeDim {
			return fmt.Errorf("core: event %d (%d→%d) carries %d features; want ids in [0,%d) and %d features",
				i, ev.Src, ev.Dst, len(ev.Feat), limit, m.Cfg.EdgeDim)
		}
	}
	return nil
}

// ReplayBatch re-applies one logged batch: it admits any node ids the model
// predates and re-admits evicted endpoints, as serving's admission path did
// before scoring, then runs ApplyPending's span on the record's rows in
// place of freshly computed embeddings. RecoverWAL uses it for one-shot
// crash recovery; a warm-standby follower uses it directly, feeding each
// record a wal.Follower delivers as shipped segments arrive. A record of
// another shape is refused before anything is touched: one whose rows are
// not one EdgeDim-wide row per distinct endpoint of its events (a log from
// a model of another shape, or one written through the deprecated
// event-only wal.Log.Begin), or one holding an event with a negative node
// id or a feature vector that is not EdgeDim long.
//
// The model must not have a WAL attached (the replay would be re-logged),
// and calls must not race serving applies or each other: replay is one
// goroutine's job, which is what lets every record reuse one plan.
func (m *Model) ReplayBatch(rec wal.Record) error {
	plan := &m.replayPlan
	plan.Build(rec.Events, nil)
	if rec.Dim != m.Cfg.EdgeDim || len(rec.Rows) != len(plan.Nodes)*rec.Dim {
		return fmt.Errorf("core: record at %d carries %d embedding values of dimension %d; its %d events name %d endpoints of dimension %d",
			rec.First, len(rec.Rows), rec.Dim, len(rec.Events), len(plan.Nodes), m.Cfg.EdgeDim)
	}
	// Replay admits every id it names, so only the id type bounds them.
	if err := m.CheckEvents(rec.Events, math.MaxInt32); err != nil {
		return fmt.Errorf("core: record at %d: %w", rec.First, err)
	}
	maxID := tgraph.NodeID(-1)
	for _, n := range plan.Nodes {
		maxID = max(maxID, n)
	}
	m.EnsureNodes(int(maxID) + 1)
	m.ReadmitBatch(rec.Events)
	m.applyRows(rec.Events, rec.Rows, plan.SrcRow, plan.DstRow)
	return nil
}
