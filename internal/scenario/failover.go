package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"apan/internal/core"
	"apan/internal/replica"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

// failMode selects the failure the failover arm injects before promotion.
type failMode int

const (
	// failClean: the leader dies between record writes; the shipped log ends
	// on a record boundary and the promoted follower resumes at the crash
	// batch.
	failClean failMode = iota
	// failTornTruncate: the leader's last shipped record arrives half-torn
	// (a ship cut mid-frame); promotion truncates it and lands one earlier.
	failTornTruncate
	// failTornGarbage: the shipped tail carries garbage bytes that fail to
	// frame; promotion treats it like a torn write.
	failTornGarbage
	// failFsyncErr: the leader's storage starts failing fsync mid-stream.
	// The WAL latches the error and freezes the log at the failing batch;
	// the leader keeps serving (best-effort durability, bitwise-correct
	// scores) and the follower can only ever take over at the frozen
	// boundary.
	failFsyncErr
	// failFollowerCrash: the follower itself dies mid-replay and is rebuilt
	// from the base checkpoint; replays must stay exactly-once.
	failFollowerCrash
)

func (f failMode) String() string {
	switch f {
	case failTornTruncate:
		return "torn_truncate"
	case failTornGarbage:
		return "torn_garbage"
	case failFsyncErr:
		return "fsync_err"
	case failFollowerCrash:
		return "follower_crash"
	default:
		return "clean"
	}
}

// failoverPlan fixes the failure geometry as a pure function of the seed,
// so violations reproduce as (seed, event index).
type failoverPlan struct {
	pauseBatch  int // follower stops polling after this many batches (lag window)
	crashBatch  int // leader dies after this many batches
	failBatch   int // fsync_err arm: the batch whose fsync fails (pause < fail ≤ crash)
	fcrashBatch int // follower_crash arm: follower dies after replaying this many batches
}

func planFailover(seed int64, numBatches int) (failoverPlan, error) {
	if numBatches < 4 {
		return failoverPlan{}, fmt.Errorf("scenario: failover needs ≥ 4 batches, have %d (raise Events or lower BatchSize)", numBatches)
	}
	rng := rand.New(rand.NewSource(seed + 43))
	pause := numBatches/4 + rng.Intn(numBatches/4+1)  // in [n/4, n/2]
	crash := pause + 1 + rng.Intn(numBatches-1-pause) // in (pause, n-1]
	fail := pause + 1 + rng.Intn(crash-pause)         // in (pause, crash]
	fcrash := 1 + rng.Intn(pause)                     // in [1, pause]
	return failoverPlan{pauseBatch: pause, crashBatch: crash, failBatch: fail, fcrashBatch: fcrash}, nil
}

// runFailover is the warm-standby workload: a leader streams with a WAL
// attached and ships the log, live segment included, to a follower directory after
// every batch; the follower replays continuously through a seeded pause
// point, then lags; the leader checkpoints and truncates mid-stream, keeps
// serving, and dies at a seeded batch. The follower is promoted and must be
// *bitwise* identical (RuntimeDigest) to the uninterrupted reference at the
// takeover watermark, then serve the rest of the stream to a bitwise
// end-of-stream digest. Five failure arms: clean crash, torn shipped tail
// (truncate + garbage), latched fsync errors on the leader's storage, and a
// follower crash mid-replay with rebuild from the base checkpoint.
// Double promotion must be fenced, and so must the ship stream's disk
// writes: every arm ships through the replica's fenced dest and proves a
// stale leader's re-ship is refused after takeover. Returns the
// violations plus the clean arm's (takeover batch, catch-up events) for
// the report.
func runFailover(tr *Trace, o RunOptions, trainFrac float64) ([]Violation, int, int, error) {
	ref, err := newModel(tr, o)
	if err != nil {
		return nil, 0, 0, err
	}
	stream := prepModel(ref, tr, o, trainFrac)
	batches := splitBatches(stream, o.BatchSize)
	plan, err := planFailover(o.Seed, len(batches))
	if err != nil {
		return nil, 0, 0, err
	}

	base := ref.DB().G.NumEvents()
	digests := make([]uint64, 0, len(batches)+1)
	digests = append(digests, ref.RuntimeDigest())
	offsets := make([]int, 0, len(batches)+1)
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

	arm := failoverArm{
		tr: tr, o: o, trainFrac: trainFrac, batches: batches, plan: plan,
		base: base, digests: digests, offsets: offsets, refScores: refScores,
	}
	var vs []Violation
	var promotedBatch, takeover int
	for _, mode := range []failMode{failClean, failTornTruncate, failTornGarbage, failFsyncErr, failFollowerCrash} {
		mvs, pb, tk, err := arm.run(mode)
		if err != nil {
			return nil, 0, 0, err
		}
		vs = append(vs, mvs...)
		if mode == failClean {
			promotedBatch, takeover = pb, tk
		}
	}
	return vs, promotedBatch, takeover, nil
}

type failoverArm struct {
	tr        *Trace
	o         RunOptions
	trainFrac float64
	batches   [][]tgraph.Event
	plan      failoverPlan
	base      int
	digests   []uint64
	offsets   []int
	refScores [][]float32
}

func (a *failoverArm) violation(mode failMode, eventIndex int, format string, args ...any) Violation {
	return Violation{Invariant: InvFailover, Scenario: a.tr.Name, Seed: a.o.Seed, EventIndex: eventIndex,
		Detail: fmt.Sprintf("[%s pause_batch=%d crash_batch=%d fail_batch=%d fcrash_batch=%d] %s",
			mode, a.plan.pauseBatch, a.plan.crashBatch, a.plan.failBatch, a.plan.fcrashBatch,
			fmt.Sprintf(format, args...))}
}

// run executes one failure mode end to end: leader + shipper + follower,
// seeded failure, promotion, and the bitwise comparison against the
// uninterrupted reference. Returns (violations, takeover batch, catch-up
// events replayed during promotion).
func (a *failoverArm) run(mode failMode) ([]Violation, int, int, error) {
	dir, err := os.MkdirTemp("", "apan-failover-")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(dir)
	dirA := filepath.Join(dir, "leader-wal")
	dirB := filepath.Join(dir, "follower-wal")
	basePath := filepath.Join(dir, "base-checkpoint")
	midPath := filepath.Join(dir, "mid-checkpoint")
	cleanOpts := wal.Options{Dir: dirB, Policy: wal.SyncGroup, SegmentBytes: 4096}
	leaderOpts := wal.Options{Dir: dirA, Policy: wal.SyncGroup, SegmentBytes: 4096}

	// fsync_err arm: storage starts failing at the seeded batch. Each batch
	// is one commit group, so counting group writes pinpoints the batch; the
	// injected error latches in the log, freezing the shipped bytes exactly
	// at the failing batch's boundary (written, never fsynced, never
	// followed).
	if mode == failFsyncErr {
		var writes atomic.Int64
		var armed atomic.Bool
		leaderOpts.Inject = &wal.FaultInjector{
			BeforeWrite: func(string, int64, int) error {
				if writes.Add(1) == int64(a.plan.failBatch) {
					armed.Store(true)
				}
				return nil
			},
			BeforeSync: func(string) error {
				if armed.CompareAndSwap(true, false) {
					return errors.New("injected: disk refused fsync")
				}
				return nil
			},
		}
	}

	// Leader: warm up, write the base checkpoint both sides seed from, then
	// attach the WAL and serve.
	leader, err := newModel(a.tr, a.o)
	if err != nil {
		return nil, 0, 0, err
	}
	prepModel(leader, a.tr, a.o, a.trainFrac)
	if _, err := leader.Checkpoint(basePath); err != nil {
		return nil, 0, 0, err
	}
	log, err := wal.Open(leaderOpts)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := leader.AttachWAL(log); err != nil {
		return nil, 0, 0, err
	}

	// Follower: same base checkpoint, replaying the shipped directory.
	newFollower := func() (*core.Model, *replica.Replica, error) {
		fm, err := newModel(a.tr, a.o)
		if err != nil {
			return nil, nil, err
		}
		if err := fm.LoadCheckpointFile(basePath); err != nil {
			return nil, nil, err
		}
		rep, err := replica.NewFollower(fm, dirB, replica.Options{WAL: cleanOpts})
		if err != nil {
			return nil, nil, err
		}
		return fm, rep, nil
	}
	fm, rep, err := newFollower()
	if err != nil {
		return nil, 0, 0, err
	}

	// Ships go through the replica's fenced dest — as the serve binary's
	// dial loop does — so the arms also prove the on-disk write fence.
	shipper := wal.NewShipper(dirA, rep.ShipDest(), wal.ShipOptions{})
	var p core.Pending
	apply := func(m *core.Model, b []tgraph.Event) []float32 {
		ensureBatch(m.EnsureNodes, b)
		scores := append([]float32(nil), m.Score(b, &p)...)
		m.ApplyPending(&p)
		return scores
	}

	var vs []Violation
	liveScores := make([][]float32, 0, a.plan.crashBatch)
	followerApplied := 0
	for bi := 0; bi < a.plan.crashBatch; bi++ {
		liveScores = append(liveScores, apply(leader, a.batches[bi]))
		if _, err := shipper.ShipNow(); err != nil {
			return nil, 0, 0, err
		}
		rep.ObserveLeaderIndex(log.NextIndex()) // the ship heartbeat
		if bi < a.plan.pauseBatch {
			n, err := rep.PollOnce()
			if err != nil {
				return nil, 0, 0, err
			}
			followerApplied += n
			if mode == failFollowerCrash && bi == a.plan.fcrashBatch-1 {
				// The follower process dies mid-replay; a fresh one rebuilds
				// from the base checkpoint and must catch up exactly-once.
				fm, rep, err = newFollower()
				if err != nil {
					return nil, 0, 0, err
				}
				// A fresh process means a fresh ship connection: the
				// leader re-ships from byte zero through the new
				// replica's dest (chunk writes are idempotent).
				shipper = wal.NewShipper(dirA, rep.ShipDest(), wal.ShipOptions{})
				if _, err := shipper.ShipNow(); err != nil {
					return nil, 0, 0, err
				}
				if _, err := rep.PollOnce(); err != nil {
					return nil, 0, 0, err
				}
			}
		}
		if bi == a.plan.pauseBatch-1 {
			// Warm replication is what makes mid-stream truncation safe: the
			// shipped copy already covers everything the checkpoint retires.
			wm, err := leader.Checkpoint(midPath)
			if err != nil {
				return nil, 0, 0, err
			}
			if _, err := log.TruncateBefore(wm); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	if rep.Role() != "follower" {
		vs = append(vs, a.violation(mode, -1, "replica reports role %q before promotion", rep.Role()))
	}
	if mode == failClean {
		if followerApplied != a.offsets[a.plan.pauseBatch] {
			vs = append(vs, a.violation(mode, a.offsets[a.plan.pauseBatch],
				"follower replayed %d events before pausing, want %d", followerApplied, a.offsets[a.plan.pauseBatch]))
		}
		// The heartbeat said the leader is offsets[crash]−offsets[pause]
		// events ahead of the parked follower.
		wantLag := int64(a.offsets[a.plan.crashBatch] - a.offsets[a.plan.pauseBatch])
		if got := rep.LagEvents(); got != wantLag {
			vs = append(vs, a.violation(mode, a.offsets[a.plan.pauseBatch],
				"follower lag %d events, want %d", got, wantLag))
		}
	}

	// The leader's scores up to the crash must match the reference — also in
	// the fsync arm, where the WAL latched an I/O error mid-stream and
	// serving degraded to best-effort durability without touching scores.
	vs = append(vs, compareScores(InvFailover, a.tr.Name, a.o.Seed, a.batches[:a.plan.crashBatch],
		a.refScores[:a.plan.crashBatch], liveScores, "uninterrupted", fmt.Sprintf("%s-leader", mode))...)
	if mode == failFsyncErr {
		if log.Stats().Err == "" {
			vs = append(vs, a.violation(mode, a.offsets[a.plan.failBatch],
				"injected fsync failure did not latch in the leader WAL"))
		}
	}

	// The crash: the leader dies without a final flush, and the shipped tail
	// is damaged per mode.
	leader.DetachWAL().Abandon()
	wantBatch := a.plan.crashBatch
	switch mode {
	case failTornTruncate:
		if err := tornTruncate(dirB, 3); err != nil {
			return nil, 0, 0, err
		}
		wantBatch = a.plan.crashBatch - 1
	case failTornGarbage:
		if err := tornAppendGarbage(dirB, 16); err != nil {
			return nil, 0, 0, err
		}
	case failFsyncErr:
		// Nothing to damage: the latch froze the log at the failing batch,
		// so the shipped copy simply ends there.
		wantBatch = a.plan.failBatch
	}

	// Promotion: catch-up replay over the shipped log, then leadership.
	if err := rep.Promote(); err != nil {
		return nil, 0, 0, err
	}
	takeover := fm.DB().G.NumEvents() - a.base - a.offsets[a.plan.pauseBatch]
	if mode == failFollowerCrash {
		takeover = fm.DB().G.NumEvents() - a.base // rebuilt follower replayed from the base
	}
	if rep.Role() != "leader" {
		vs = append(vs, a.violation(mode, -1, "replica reports role %q after promotion", rep.Role()))
	}
	// Fencing: a second promotion and any further polling must refuse.
	if err := rep.Promote(); !errors.Is(err, replica.ErrAlreadyPromoted) {
		vs = append(vs, a.violation(mode, -1, "double promotion not fenced: second Promote returned %v", err))
	}
	if _, err := rep.PollOnce(); !errors.Is(err, replica.ErrPromoted) {
		vs = append(vs, a.violation(mode, -1, "promoted replica accepted a poll: PollOnce returned %v", err))
	}
	// On-disk write fence: an ex-leader that is in fact still alive (a
	// partition, not a crash) keeps streaming — a fresh connection's
	// re-ship from byte zero must be refused before a single chunk lands
	// under the promoted leader's log.
	staleShip := wal.NewShipper(dirA, rep.ShipDest(), wal.ShipOptions{})
	if _, err := staleShip.ShipNow(); !errors.Is(err, replica.ErrPromoted) {
		vs = append(vs, a.violation(mode, -1, "stale leader ship not fenced: ShipNow returned %v", err))
	}

	gotBatch := sort.SearchInts(a.offsets, fm.DB().G.NumEvents()-a.base)
	if gotBatch >= len(a.offsets) || a.offsets[gotBatch] != fm.DB().G.NumEvents()-a.base {
		vs = append(vs, a.violation(mode, -1, "takeover landed mid-batch: watermark %d does not align to a batch boundary",
			fm.DB().G.NumEvents()-a.base))
		return vs, gotBatch, takeover, nil
	}
	if gotBatch != wantBatch {
		vs = append(vs, a.violation(mode, a.offsets[wantBatch],
			"takeover landed at batch %d (stream event %d), want batch %d", gotBatch, a.offsets[gotBatch], wantBatch))
		return vs, gotBatch, takeover, nil
	}
	if got, want := fm.RuntimeDigest(), a.digests[gotBatch]; got != want {
		vs = append(vs, a.violation(mode, a.offsets[gotBatch],
			"promoted digest %016x != uninterrupted digest %016x at batch %d", got, want, gotBatch))
	}

	// The promoted leader serves the rest of the stream — logging to its own
	// (formerly shipped) WAL — and must end bitwise where the uninterrupted
	// run ended.
	contScores := make([][]float32, 0, len(a.batches)-gotBatch)
	for _, b := range a.batches[gotBatch:] {
		contScores = append(contScores, apply(fm, b))
	}
	vs = append(vs, compareScores(InvFailover, a.tr.Name, a.o.Seed, a.batches[gotBatch:],
		a.refScores[gotBatch:], contScores, "uninterrupted", fmt.Sprintf("%s-promoted", mode))...)
	if got, want := fm.RuntimeDigest(), a.digests[len(a.batches)]; got != want {
		vs = append(vs, a.violation(mode, a.offsets[len(a.batches)]-1,
			"end-of-stream digest %016x != uninterrupted digest %016x", got, want))
	}
	if err := fm.DetachWAL().Close(); err != nil {
		return nil, 0, 0, err
	}
	return vs, gotBatch, takeover, nil
}
