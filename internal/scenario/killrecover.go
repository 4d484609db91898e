package scenario

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"apan/internal/core"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

// killMode selects what the simulated crash leaves on disk at the log's tail.
type killMode int

const (
	// killClean: the process dies between record writes — the log ends on a
	// record boundary and recovery must resume exactly at the crash batch.
	killClean killMode = iota
	// killTornTruncate: the process dies mid-write — the newest record is
	// half on disk. Recovery must truncate it and land one batch earlier.
	killTornTruncate
	// killTornGarbage: the tail sector was overwritten with garbage before
	// the crash. The garbage fails to frame, so recovery treats it exactly
	// like a torn write: drop the tail, keep every intact record.
	killTornGarbage
)

func (k killMode) String() string {
	switch k {
	case killTornTruncate:
		return "torn_truncate"
	case killTornGarbage:
		return "torn_garbage"
	default:
		return "clean"
	}
}

// killPlan fixes the crash geometry as a pure function of the seed, so a
// violation report's (seed, event index) reproduces the exact same
// checkpoint cut, crash point and torn tail.
type killPlan struct {
	ckptBatch  int // checkpoint lands after this many streamed batches
	crashBatch int // the process dies after this many streamed batches
}

func planKill(seed int64, numBatches int) (killPlan, error) {
	if numBatches < 4 {
		return killPlan{}, fmt.Errorf("scenario: kill-and-recover needs ≥ 4 batches, have %d (raise Events or lower BatchSize)", numBatches)
	}
	rng := rand.New(rand.NewSource(seed + 41))
	ckpt := numBatches/4 + rng.Intn(numBatches/4+1)          // in [n/4, n/2]
	crash := ckpt + 1 + rng.Intn(numBatches-1-ckpt)          // in (ckpt, n-1]
	return killPlan{ckptBatch: ckpt, crashBatch: crash}, nil // ≥ 1 batch continues after recovery
}

// runKillRecover is the durability workload: kill the serving process at a
// seeded batch index — including mid-record torn writes — recover from
// checkpoint + WAL replay, and require the recovered runtime to be
// *bitwise* identical (RuntimeDigest) to an uninterrupted run at the same
// stream position, then to stay bitwise identical through the end of the
// stream.
//
// One uninterrupted reference run records the digest at every batch
// boundary; each crash mode then runs the full die/recover/continue cycle
// against a real on-disk WAL and compares scores and digests against the
// reference. Returns the violations, plus the clean-mode replayed event
// count for the report.
func runKillRecover(tr *Trace, o RunOptions, trainFrac float64) ([]Violation, int, error) {
	// Reference arm: uninterrupted direct path, digests at every boundary.
	ref, err := newModel(tr, o)
	if err != nil {
		return nil, 0, err
	}
	stream := prepModel(ref, tr, o, trainFrac)
	batches := splitBatches(stream, o.BatchSize)
	plan, err := planKill(o.Seed, len(batches))
	if err != nil {
		return nil, 0, err
	}

	base := ref.DB().G.NumEvents() // events the training prefix inserted
	digests := make([]uint64, 0, len(batches)+1)
	digests = append(digests, ref.RuntimeDigest())
	offsets := make([]int, 0, len(batches)+1) // stream index of each boundary
	offsets = append(offsets, 0)
	refScores := make([][]float32, 0, len(batches))
	var p core.Pending
	for _, b := range batches {
		ensureBatch(ref.EnsureNodes, b)
		refScores = append(refScores, append([]float32(nil), ref.Score(b, &p)...))
		ref.ApplyPending(&p)
		digests = append(digests, ref.RuntimeDigest())
		offsets = append(offsets, offsets[len(offsets)-1]+len(b))
	}

	arm := killArm{
		tr: tr, o: o, trainFrac: trainFrac, batches: batches, plan: plan,
		base: base, digests: digests, offsets: offsets, refScores: refScores,
	}
	var vs []Violation
	var recovered int
	for _, mode := range []killMode{killClean, killTornTruncate, killTornGarbage} {
		mvs, rec, err := arm.run(mode)
		if err != nil {
			return nil, 0, err
		}
		vs = append(vs, mvs...)
		if mode == killClean {
			recovered = rec
		}
	}
	return vs, recovered, nil
}

// killArm carries the reference run's boundary digests and scores into each
// crash mode's die/recover/continue cycle.
type killArm struct {
	tr        *Trace
	o         RunOptions
	trainFrac float64
	batches   [][]tgraph.Event
	plan      killPlan
	base      int // graph events inserted by the training prefix
	digests   []uint64
	offsets   []int
	refScores [][]float32
}

func (a *killArm) violation(mode killMode, eventIndex int, format string, args ...any) Violation {
	return Violation{Invariant: InvKillRecover, Scenario: a.tr.Name, Seed: a.o.Seed, EventIndex: eventIndex,
		Detail: fmt.Sprintf("[%s ckpt_batch=%d crash_batch=%d] %s",
			mode, a.plan.ckptBatch, a.plan.crashBatch, fmt.Sprintf(format, args...))}
}

// run executes one crash mode end to end. SegmentBytes is kept tiny so the
// cycle also crosses segment rotation and checkpoint-driven truncation, and
// SyncGroup makes every acknowledged batch durable — the contract the crash
// then tests.
func (a *killArm) run(mode killMode) ([]Violation, int, error) {
	dir, err := os.MkdirTemp("", "apan-killrecover-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "wal")
	ckptPath := filepath.Join(dir, "checkpoint")
	walOpts := wal.Options{Dir: walDir, Policy: wal.SyncGroup, SegmentBytes: 4096}

	// Live process: stream with the WAL attached, checkpoint mid-stream,
	// truncate the log behind the checkpoint, stream on, die.
	live, err := newModel(a.tr, a.o)
	if err != nil {
		return nil, 0, err
	}
	prepModel(live, a.tr, a.o, a.trainFrac)
	log, err := wal.Open(walOpts)
	if err != nil {
		return nil, 0, err
	}
	if err := live.AttachWAL(log); err != nil {
		return nil, 0, err
	}
	var p core.Pending
	apply := func(m *core.Model, b []tgraph.Event) []float32 {
		ensureBatch(m.EnsureNodes, b)
		scores := append([]float32(nil), m.Score(b, &p)...)
		m.ApplyPending(&p)
		return scores
	}
	liveScores := make([][]float32, 0, a.plan.crashBatch)
	for _, b := range a.batches[:a.plan.ckptBatch] {
		liveScores = append(liveScores, apply(live, b))
	}
	wm, err := live.Checkpoint(ckptPath)
	if err != nil {
		return nil, 0, err
	}
	if _, err := log.TruncateBefore(wm); err != nil {
		return nil, 0, err
	}
	for _, b := range a.batches[a.plan.ckptBatch:a.plan.crashBatch] {
		liveScores = append(liveScores, apply(live, b))
	}
	live.DetachWAL().Abandon() // the crash: no Close, no final flush

	vs := compareScores(InvKillRecover, a.tr.Name, a.o.Seed, a.batches[:a.plan.crashBatch],
		a.refScores[:a.plan.crashBatch], liveScores, "uninterrupted", fmt.Sprintf("%s-live", mode))

	// The torn tail: damage the newest segment the way a mid-write crash
	// does, and compute which batch boundary recovery must land on.
	wantBatch := a.plan.crashBatch
	switch mode {
	case killTornTruncate:
		if err := tornTruncate(walDir, 3); err != nil {
			return nil, 0, err
		}
		wantBatch = a.plan.crashBatch - 1 // the half-written record is lost
	case killTornGarbage:
		if err := tornAppendGarbage(walDir, 16); err != nil {
			return nil, 0, err
		}
	}

	// Recovery process: fresh model, checkpoint, replay to watermark.
	rec, err := newModel(a.tr, a.o)
	if err != nil {
		return nil, 0, err
	}
	if err := rec.LoadCheckpointFile(ckptPath); err != nil {
		return nil, 0, err
	}
	log2, err := wal.Open(walOpts)
	if err != nil {
		return nil, 0, err
	}
	replayed, err := rec.RecoverWAL(log2)
	if err != nil {
		return nil, 0, err
	}
	gotBatch := sort.SearchInts(a.offsets, rec.DB().G.NumEvents()-a.base)
	if gotBatch >= len(a.offsets) || a.offsets[gotBatch] != rec.DB().G.NumEvents()-a.base {
		vs = append(vs, a.violation(mode, -1, "recovery landed mid-batch: %d replayed events do not align to a batch boundary", replayed))
		return vs, replayed, nil
	}
	if gotBatch != wantBatch {
		vs = append(vs, a.violation(mode, a.offsets[wantBatch],
			"recovery landed at batch %d (stream event %d), want batch %d", gotBatch, a.offsets[gotBatch], wantBatch))
		return vs, replayed, nil
	}
	if got, want := rec.RuntimeDigest(), a.digests[gotBatch]; got != want {
		vs = append(vs, a.violation(mode, a.offsets[gotBatch],
			"recovered digest %016x != uninterrupted digest %016x at batch %d", got, want, gotBatch))
	}

	// The recovered replica serves the rest of the stream and must end
	// bitwise where the uninterrupted run ended.
	if err := rec.AttachWAL(log2); err != nil {
		return nil, 0, err
	}
	contScores := make([][]float32, 0, len(a.batches)-gotBatch)
	for _, b := range a.batches[gotBatch:] {
		contScores = append(contScores, apply(rec, b))
	}
	vs = append(vs, compareScores(InvKillRecover, a.tr.Name, a.o.Seed, a.batches[gotBatch:],
		a.refScores[gotBatch:], contScores, "uninterrupted", fmt.Sprintf("%s-recovered", mode))...)
	if got, want := rec.RuntimeDigest(), a.digests[len(a.batches)]; got != want {
		vs = append(vs, a.violation(mode, a.offsets[len(a.batches)]-1,
			"end-of-stream digest %016x != uninterrupted digest %016x", got, want))
	}
	if err := rec.DetachWAL().Close(); err != nil {
		return nil, 0, err
	}
	return vs, replayed, nil
}

// newestSegment returns the path of the highest-indexed WAL segment —
// the one a mid-write crash tears.
func newestSegment(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var segs []string
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			segs = append(segs, name)
		}
	}
	if len(segs) == 0 {
		return "", fmt.Errorf("scenario: no wal segments in %s", dir)
	}
	sort.Strings(segs) // fixed-width hex names sort numerically
	return filepath.Join(dir, segs[len(segs)-1]), nil
}

// tornTruncate chops n bytes off the newest segment, leaving its last
// record half-written.
func tornTruncate(dir string, n int64) error {
	path, err := newestSegment(dir)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, fi.Size()-n)
}

// tornAppendGarbage appends n bytes of junk to the newest segment — a tail
// sector the crash left with garbage instead of a frame.
func tornAppendGarbage(dir string, n int) error {
	path, err := newestSegment(dir)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	junk := make([]byte, n)
	for i := range junk {
		junk[i] = 0x5A
	}
	if _, err := f.Write(junk); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
