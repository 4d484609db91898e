// Package replica implements the warm-standby follower: a model fed from a
// log-shipped copy of the leader's write-ahead log, continuously re-applied
// from the embeddings the leader logged, promotable to leader the moment
// the primary is lost.
//
// Dataflow: the leader ships WAL segments (wal.Shipper, usually the tail
// mode behind wal.ServeShip) into the follower's log directory; PollOnce
// scans the shipped bytes with a wal.Follower and replays each complete
// record via core.Model.ReplayBatch. Because replay is the leader's apply
// span run on the leader's own embeddings, the follower's runtime state at
// watermark W is bitwise identical to the leader's at W, whatever
// parameters either side holds — RuntimeDigest equality is the scenario
// harness's proof.
// A torn or still-in-flight tail parks the scanner; the next PollOnce
// resumes where it left off once more bytes arrive.
//
// Promotion turns the follower into a leader: the shipped log directory is
// opened for appends (wal.Open truncates any torn tail exactly like crash
// recovery would), any records past the follower's cursor are replayed,
// and the log is attached to the model so new applies are durably logged.
// Promote is fenced at every layer a stale leader could reach:
//
//   - a second Promote returns ErrAlreadyPromoted rather than
//     double-attaching;
//   - after promotion PollOnce refuses to run, so a stale shipping
//     connection can never rewind a promoted leader's replay cursor;
//   - the on-disk writes themselves are fenced: shipped chunks routed
//     through ShipDest stop landing the instant Promote begins, so an
//     ex-leader that is still alive (planned switchover, partition)
//     cannot overwrite the new leader's freshly appended WAL frames.
//
// Lag/role reads (Cursor, Role, LagEvents) are lock-free: they never
// contend with a replay in progress, so readiness probes stay responsive
// during a long catch-up.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"apan/internal/core"
	"apan/internal/wal"
)

// ErrAlreadyPromoted is returned by Promote when the replica has already
// been promoted — the fencing signal against double promotion.
var ErrAlreadyPromoted = errors.New("replica: already promoted")

// ErrPromoted is returned by PollOnce after promotion: a promoted leader
// must not accept further shipped records. ShipDest returns it from
// WriteChunk for the same reason — no shipped byte may land in the log
// directory once it can be reopened for appends.
var ErrPromoted = errors.New("replica: promoted — follower polling stopped")

// Options configures a follower replica.
type Options struct {
	// WAL are the log options used when the replica is promoted and the
	// shipped directory is opened for appends (Dir is overridden with the
	// replica's directory). The sync policy should match the leader's.
	WAL wal.Options
}

// Replica is a warm-standby follower over one model and one shipped log
// directory. Methods are safe for concurrent use; PollOnce and Promote
// serialize against each other, so replay never races promotion, and
// Promote additionally serializes against ShipDest chunk writes, so
// promotion never races the ship stream's disk writes.
type Replica struct {
	m       *core.Model
	dir     string
	walOpts wal.Options

	mu        sync.Mutex // serializes PollOnce, Promote, SetFenceHook
	f         *wal.Follower
	fenceHook func()

	// shipMu serializes ShipDest chunk writes against the promotion
	// fence: WriteChunk checks fenced under it, and Promote takes it once
	// after setting fenced, so no in-flight chunk can still be writing
	// when the directory is reopened for appends.
	shipMu sync.Mutex
	fenced atomic.Bool

	// Lock-free read mirrors: cursor tracks the follower's replay cursor
	// (updated after each delivered batch, so lag reads stay fresh during
	// a long catch-up), promoted flips once Promote succeeds, and logp
	// holds the attached log from then on. All are written only under mu.
	cursor   atomic.Uint64
	promoted atomic.Bool
	logp     atomic.Pointer[wal.Log]

	// leaderNext is the most recent leader NextIndex observed from a ship
	// heartbeat; 0 until the first heartbeat arrives.
	leaderNext atomic.Uint64
}

// NewFollower wraps model m as a follower replaying the shipped log in dir,
// starting from the model's current graph watermark (typically the
// checkpoint both sides were seeded from). The model must not have a WAL
// attached — the follower's applies are replays of already-durable records.
func NewFollower(m *core.Model, dir string, opts Options) (*Replica, error) {
	if m.WAL() != nil {
		return nil, fmt.Errorf("replica: model has a WAL attached — followers replay, they do not log")
	}
	f, err := wal.OpenFollower(dir, uint64(m.GraphEvents()))
	if err != nil {
		return nil, err
	}
	opts.WAL.Dir = dir
	r := &Replica{m: m, dir: dir, walOpts: opts.WAL, f: f}
	r.cursor.Store(f.Cursor())
	return r, nil
}

// PollOnce scans the shipped directory once and replays every complete
// record past the cursor through the model. It returns the number of events
// applied; a torn or in-flight tail is not an error — it parks the scanner
// until more bytes arrive. Returns ErrPromoted after promotion.
func (r *Replica) PollOnce() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted.Load() {
		return 0, ErrPromoted
	}
	applied := 0
	_, err := r.f.Poll(func(rec wal.Record) error {
		if err := r.m.ReplayBatch(rec); err != nil {
			return err
		}
		applied += len(rec.Events)
		r.cursor.Store(rec.First + uint64(len(rec.Events)))
		return nil
	})
	r.cursor.Store(r.f.Cursor())
	return applied, err
}

// Cursor returns the next event index the follower expects — the exclusive
// upper bound of everything replayed so far (after promotion, of everything
// durably logged). Lock-free: never blocks behind a replay in progress.
func (r *Replica) Cursor() uint64 {
	if l := r.logp.Load(); l != nil {
		return l.NextIndex()
	}
	return r.cursor.Load()
}

// ObserveLeaderIndex records the leader's NextIndex from a ship heartbeat;
// LagEvents reports against the most recent observation.
func (r *Replica) ObserveLeaderIndex(next uint64) {
	r.leaderNext.Store(next)
}

// LagEvents returns how many events the leader has logged beyond the
// follower's cursor, per the last heartbeat — 0 before any heartbeat, and
// floored at 0 (the local cursor can briefly lead a stale heartbeat).
func (r *Replica) LagEvents() int64 {
	next := r.leaderNext.Load()
	if next == 0 {
		return 0
	}
	lag := int64(next) - int64(r.Cursor())
	if lag < 0 {
		return 0
	}
	return lag
}

// Role reports "follower" or "leader". Lock-free: a readiness probe
// landing mid-catch-up gets an immediate answer.
func (r *Replica) Role() string {
	if r.promoted.Load() {
		return "leader"
	}
	return "follower"
}

// ShipDest returns the destination the leader's ship stream must write
// through: chunks land in the replica's directory until promotion begins,
// then every WriteChunk returns ErrPromoted. Routing wal.FollowShip
// through this (rather than a raw wal.DirDest on the same directory) is
// what fences the on-disk writes — a still-alive ex-leader's stream
// cannot overwrite WAL frames the promoted leader has appended at the
// same byte offsets.
func (r *Replica) ShipDest() wal.ShipDest {
	return fencedShipDest{r}
}

type fencedShipDest struct{ r *Replica }

func (d fencedShipDest) WriteChunk(name string, off int64, data []byte) error {
	d.r.shipMu.Lock()
	defer d.r.shipMu.Unlock()
	if d.r.fenced.Load() {
		return ErrPromoted
	}
	return wal.DirDest{Dir: d.r.dir}.WriteChunk(name, off, data)
}

// SetFenceHook registers f to run inside Promote, after shipped-chunk
// writes are fenced and before the directory is reopened for appends —
// the place to sever an active ship connection so the receiving loop
// notices takeover even if the ex-leader keeps streaming. At most one
// hook; a later call replaces it.
func (r *Replica) SetFenceHook(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fenceHook = f
}

// Promote turns the follower into a leader: fence the ship stream (no
// shipped byte may land past this point), open the shipped directory for
// appends (truncating any torn tail, exactly like crash recovery), replay
// whatever complete records the last poll had not yet applied, and attach
// the log to the model so subsequent applies are durably logged. After a
// successful return the model is a read-write leader whose state at the
// takeover watermark is bitwise the crashed leader's. A second Promote
// returns ErrAlreadyPromoted.
func (r *Replica) Promote() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted.Load() {
		return ErrAlreadyPromoted
	}
	// Fence first: refuse new ship chunks, wait out any chunk already
	// inside WriteChunk, then sever the connection. Only once no shipped
	// byte can land may the directory be reopened for appends.
	r.fenced.Store(true)
	r.shipMu.Lock() // barrier: any in-flight WriteChunk has drained
	if r.fenceHook != nil {
		r.fenceHook()
	}
	r.shipMu.Unlock()
	// A failed promotion lifts the fence so the process is still a
	// functioning follower. Safe even though Open may already have
	// truncated a torn tail: the fence hook dropped the connection, and a
	// reconnecting leader re-ships every segment from byte zero.
	opts := r.walOpts
	opts.Dir = r.dir
	log, err := wal.Open(opts)
	if err != nil {
		r.fenced.Store(false)
		return fmt.Errorf("replica: promote: open shipped log: %w", err)
	}
	if _, err := r.m.RecoverWAL(log); err != nil {
		log.Abandon()
		r.fenced.Store(false)
		return fmt.Errorf("replica: promote: catch-up replay: %w", err)
	}
	if err := r.m.AttachWAL(log); err != nil {
		log.Abandon()
		r.fenced.Store(false)
		return fmt.Errorf("replica: promote: %w", err)
	}
	r.cursor.Store(log.NextIndex())
	r.logp.Store(log)
	r.promoted.Store(true)
	return nil
}

// Log returns the attached write-ahead log once promoted (nil before).
// The caller owns closing it at shutdown, via the model's DetachWAL.
func (r *Replica) Log() *wal.Log {
	return r.logp.Load()
}
