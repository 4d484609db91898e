package mailbox

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Sharded is the lock-striped mailbox store used on the serving path: the
// per-node layout of Store, striped across a power-of-two number of
// shards, each guarded by its own RWMutex. Node n lives in shard n&mask at
// local index n>>bits, so consecutive node IDs spread across shards and the
// asynchronous link's mail deliveries never block synchronous-link readers
// of other shards.
//
// ReadSorted copies mails out under the shard's read lock, so a reader never
// observes a half-written slot. Per-node operations are atomic; cross-node
// reads are not a snapshot — use Snapshot (all-shard lock) when a consistent
// cut is required. Grow admits new nodes at runtime.
type Sharded struct {
	slots    int
	dim      int
	mask     int32
	bits     uint
	numNodes atomic.Int64
	shards   []mailShard
}

type mailShard struct {
	mu sync.RWMutex
	st *Store
	// Pad the 24-byte mutex + 8-byte pointer to a full cache line so shard
	// locks don't false-share.
	_ [32]byte
}

// NewSharded creates an empty sharded store for numNodes mailboxes of
// `slots` mails of dimension dim, striped across `shards` shards (rounded up
// to a power of two; values < 1 mean one shard, i.e. a single global lock).
func NewSharded(numNodes, slots, dim, shards int) *Sharded {
	if numNodes <= 0 || slots <= 0 || dim <= 0 {
		panic(fmt.Sprintf("mailbox: invalid shape nodes=%d slots=%d dim=%d", numNodes, slots, dim))
	}
	n := shardCount(shards)
	s := &Sharded{slots: slots, dim: dim, mask: int32(n - 1), shards: make([]mailShard, n)}
	for n>>s.bits > 1 {
		s.bits++
	}
	cap := shardCap(numNodes, n)
	for i := range s.shards {
		s.shards[i].st = New(cap, slots, dim)
	}
	s.numNodes.Store(int64(numNodes))
	return s
}

// shardCount rounds n up to a power of two in [1, 1<<16].
func shardCount(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 1<<16 {
		n = 1 << 16
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardCap returns the flat-store size each of `shards` shards needs to
// cover numNodes global IDs (local index is id>>bits, so ceil is exact).
func shardCap(numNodes, shards int) int {
	c := (numNodes + shards - 1) / shards
	if c < 1 {
		c = 1
	}
	return c
}

// SetRule selects the update rule ψ for every mailbox.
func (s *Sharded) SetRule(r UpdateRule) {
	s.lockAll()
	for i := range s.shards {
		s.shards[i].st.SetRule(r)
	}
	s.unlockAll()
}

// Slots returns the per-node slot count m.
func (s *Sharded) Slots() int { return s.slots }

// Dim returns the mail dimension d.
func (s *Sharded) Dim() int { return s.dim }

// NumNodes returns the current number of mailboxes.
func (s *Sharded) NumNodes() int { return int(s.numNodes.Load()) }

func (s *Sharded) locate(n int32) (*mailShard, int32) {
	if n < 0 || int64(n) >= s.numNodes.Load() {
		panic(fmt.Sprintf("mailbox: node %d outside [0,%d)", n, s.numNodes.Load()))
	}
	return &s.shards[n&s.mask], n >> s.bits
}

// Len returns the number of mails currently in node n's mailbox.
func (s *Sharded) Len(n int32) int {
	sh, local := s.locate(n)
	sh.mu.RLock()
	c := sh.st.Len(local)
	sh.mu.RUnlock()
	return c
}

// Deliver applies ψ to insert mail (with timestamp ts) into node n's
// mailbox, locking only n's shard.
func (s *Sharded) Deliver(n int32, mail []float32, ts float64) {
	sh, local := s.locate(n)
	sh.mu.Lock()
	sh.st.Deliver(local, mail, ts)
	sh.mu.Unlock()
}

// SetMails replaces node n's mailbox in one step (see Store.SetMails),
// locking n's shard once however many mails there are.
func (s *Sharded) SetMails(n int32, mails []float32, ts []float64) {
	sh, local := s.locate(n)
	sh.mu.Lock()
	sh.st.SetMails(local, mails, ts)
	sh.mu.Unlock()
}

// ReadSorted copies node n's mails into buf sorted by ascending timestamp
// under the shard's read lock (see Store.ReadSorted for the contract).
func (s *Sharded) ReadSorted(n int32, buf []float32, tsOut []float64) int {
	sh, local := s.locate(n)
	sh.mu.RLock()
	c := sh.st.ReadSorted(local, buf, tsOut)
	sh.mu.RUnlock()
	return c
}

// ClearNode empties node n's mailbox (see Store.ClearNode), locking only
// n's shard.
func (s *Sharded) ClearNode(n int32) {
	sh, local := s.locate(n)
	sh.mu.Lock()
	sh.st.ClearNode(local)
	sh.mu.Unlock()
}

// Grow extends the store to hold n mailboxes, preserving existing contents.
// It locks every shard, but only to extend their indexes — no mail moves;
// no-op when n ≤ NumNodes.
func (s *Sharded) Grow(n int) {
	if int64(n) <= s.numNodes.Load() {
		return
	}
	s.lockAll()
	if int64(n) > s.numNodes.Load() {
		cap := shardCap(n, len(s.shards))
		for i := range s.shards {
			s.shards[i].st.Grow(cap)
		}
		s.numNodes.Store(int64(n))
	}
	s.unlockAll()
}

// Reset empties every mailbox.
func (s *Sharded) Reset() {
	s.lockAll()
	for i := range s.shards {
		s.shards[i].st.Reset()
	}
	s.unlockAll()
}

// Occupancy is a point-in-time view of the mail memory a store holds.
type Occupancy struct {
	// NodesWithMail counts mailboxes holding at least one mail.
	NodesWithMail int `json:"nodes_with_mail"`
	// LiveBlocks counts mail blocks owned by a mailbox (== NodesWithMail by
	// the Store invariant); FreeBlocks those ClearNode handed back and no
	// delivery has reused yet.
	LiveBlocks int `json:"live_blocks"`
	FreeBlocks int `json:"free_blocks"`
	// Bytes is the mail memory held: (LiveBlocks+FreeBlocks) × slots × dim
	// float32s. The per-node index is not included.
	Bytes int64 `json:"bytes"`
}

// Occupancy counts mailboxes with mail and live/free mail blocks, one shard
// at a time under its read lock (cross-shard it is not a snapshot).
func (s *Sharded) Occupancy() Occupancy {
	var o Occupancy
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for n, b := range sh.st.blocks {
			if b != nil {
				o.LiveBlocks++
			}
			if sh.st.count[n] > 0 {
				o.NodesWithMail++
			}
		}
		o.FreeBlocks += len(sh.st.free)
		sh.mu.RUnlock()
	}
	o.Bytes = int64(o.LiveBlocks+o.FreeBlocks) * int64(s.slots*s.dim) * 4
	return o
}

func (s *Sharded) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

func (s *Sharded) unlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// ShardedSnapshot captures a Sharded store for later Restore. Snapshots
// are immutable: Restore and checkpoint serialization clone out of them,
// never mutate them.
type ShardedSnapshot struct {
	numNodes int
	shards   []*Store
}

// ReadSorted is Sharded.ReadSorted over the captured contents, so a
// checkpoint is encoded from the snapshot itself, not from a store restored
// from it.
func (snap *ShardedSnapshot) ReadSorted(n int32, buf []float32, tsOut []float64) int {
	k := len(snap.shards) // a power of two
	return snap.shards[int(n)&(k-1)].ReadSorted(n>>bits.TrailingZeros(uint(k)), buf, tsOut)
}

// Snapshot returns a deep, cross-shard-consistent copy of the store (all
// shards locked for the duration).
func (s *Sharded) Snapshot() *ShardedSnapshot {
	snap := &ShardedSnapshot{shards: make([]*Store, len(s.shards))}
	s.lockAll()
	snap.numNodes = int(s.numNodes.Load())
	for i := range s.shards {
		snap.shards[i] = s.shards[i].st.clone()
	}
	s.unlockAll()
	return snap
}

// SnapshotShared captures the store one shard at a time under shard READ
// locks, so concurrent readers — including a serving Score gather —
// are never blocked. The copy is cross-shard-consistent only if writers are
// externally quiesced for the duration (the model's apply gate provides
// that); with writers running it degrades to per-shard consistency, like
// any interleaved read.
func (s *Sharded) SnapshotShared() *ShardedSnapshot {
	snap := &ShardedSnapshot{
		numNodes: int(s.numNodes.Load()),
		shards:   make([]*Store, len(s.shards)),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		snap.shards[i] = sh.st.clone()
		sh.mu.RUnlock()
	}
	return snap
}

// Restore resets the store to a previously captured snapshot, including its
// node count (a store grown since the snapshot shrinks back).
func (s *Sharded) Restore(snap *ShardedSnapshot) {
	if len(snap.shards) != len(s.shards) {
		panic(fmt.Sprintf("mailbox: restore across shard counts (%d vs %d)", len(snap.shards), len(s.shards)))
	}
	s.lockAll()
	for i := range s.shards {
		s.shards[i].st = snap.shards[i].clone()
	}
	s.numNodes.Store(int64(snap.numNodes))
	s.unlockAll()
}
