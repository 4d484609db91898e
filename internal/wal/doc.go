// Package wal implements the durability subsystem's write-ahead event log:
// an append-only, CRC-framed, segment-rotated log of the batches applied by
// the asynchronous link — the durable form of that link's queue, holding
// what the queue holds: the events and the embeddings the synchronous link
// computed for them.
//
// One record is one applied batch, written at the pipeline's serial apply
// point in graph order, so the log index of an event equals its id in the
// temporal graph's event log. Recovery is checkpoint + replay-to-watermark:
// load the newest checkpoint, then re-apply every logged record past the
// checkpoint's GraphEvents watermark from the embeddings it carries,
// reconstructing node state, mailboxes and the graph bit-for-bit without
// running the model.
//
// Appends are group-committed: BeginRecord buffers the encoded record under a
// short mutex and returns a by-value Commit ticket; Wait elects one waiting
// goroutine as the flush leader, which writes the whole buffered group with
// one write(2) (and, under SyncGroup, one fsync) while later appends fill a
// double buffer. The hot path therefore stays allocation-free and an fsync
// is amortized over every batch that arrived while the previous one was
// flushing.
//
// On Open, segments are chained by record index and a torn tail — a partial
// record at the end of the newest segment, the signature of a crash mid
// write — is truncated away. Corruption anywhere else is fatal: the log
// refuses to silently skip records that were once acknowledged. Open,
// ReplayRecords and a Follower read frames through one scanner, and the
// two that deliver records hold them to one contiguity rule. Snapshots
// coordinate with the log by watermark: a checkpoint pins the index it
// captured, and TruncateBefore drops whole segments older than it.
package wal
