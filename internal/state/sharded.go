package state

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Sharded is the lock-striped node-state store used on the serving path: the
// per-node layout of Store, striped across a power-of-two number of shards,
// each guarded by its own RWMutex. Node n lives in shard n&mask at
// local index n>>bits, so consecutive node IDs spread across shards and a
// hot write never blocks readers of other shards.
//
// All reads are copy-out (CopyTo): no method hands out a view into shard
// memory, so a caller never observes a concurrent write mid-row. Grow admits
// new nodes at runtime; it takes every shard lock, so in-flight per-node
// operations finish first and operations started after see the larger store.
//
// Consistency model: per-node operations are atomic; cross-node reads are
// not a snapshot (a reader interleaving with a multi-node writer may see
// some nodes pre-write and others post-write). Callers needing a consistent
// cut across nodes — checkpointing, epoch resets — must either quiesce
// writers or use Snapshot, which locks all shards.
type Sharded struct {
	dim      int
	mask     int32
	bits     uint
	numNodes atomic.Int64
	shards   []stateShard
}

type stateShard struct {
	mu sync.RWMutex
	st *Store
	// Pad the 24-byte mutex + 8-byte pointer to a full cache line so shard
	// locks don't false-share.
	_ [32]byte
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

// NewSharded creates a zero-initialized sharded store over numNodes nodes of
// dimension dim, striped across `shards` shards (rounded up to a power of
// two; values < 1 mean one shard, i.e. a single global lock).
func NewSharded(numNodes, dim, shards int) *Sharded {
	if numNodes <= 0 || dim <= 0 {
		panic(fmt.Sprintf("state: invalid shape nodes=%d dim=%d", numNodes, dim))
	}
	n := shardCount(shards)
	s := &Sharded{dim: dim, mask: int32(n - 1), shards: make([]stateShard, n)}
	for n>>s.bits > 1 {
		s.bits++
	}
	cap := shardCap(numNodes, n)
	for i := range s.shards {
		s.shards[i].st = New(cap, dim)
	}
	s.numNodes.Store(int64(numNodes))
	return s
}

// Dim returns the embedding dimension.
func (s *Sharded) Dim() int { return s.dim }

// NumNodes returns the current number of tracked nodes.
func (s *Sharded) NumNodes() int { return int(s.numNodes.Load()) }

func (s *Sharded) locate(n int32) (*stateShard, int32) {
	if n < 0 || int64(n) >= s.numNodes.Load() {
		panic(fmt.Sprintf("state: node %d outside [0,%d)", n, s.numNodes.Load()))
	}
	return &s.shards[n&s.mask], n >> s.bits
}

// CopyTo copies node n's embedding z(t−) into dst (len ≥ Dim).
func (s *Sharded) CopyTo(n int32, dst []float32) {
	sh, local := s.locate(n)
	sh.mu.RLock()
	sh.st.CopyTo(local, dst)
	sh.mu.RUnlock()
}

// Get returns a copy of node n's embedding. Prefer CopyTo on hot paths; Get
// allocates.
func (s *Sharded) Get(n int32) []float32 {
	dst := make([]float32, s.dim)
	s.CopyTo(n, dst)
	return dst
}

// Set overwrites node n's embedding and stamps its update time, locking only
// n's shard.
func (s *Sharded) Set(n int32, z []float32, t float64) {
	sh, local := s.locate(n)
	sh.mu.Lock()
	sh.st.Set(local, z, t)
	sh.mu.Unlock()
}

// LastTime returns when node n was last updated (0 if never).
func (s *Sharded) LastTime(n int32) float64 {
	sh, local := s.locate(n)
	sh.mu.RLock()
	t := sh.st.LastTime(local)
	sh.mu.RUnlock()
	return t
}

// Touched reports whether node n has ever been updated.
func (s *Sharded) Touched(n int32) bool {
	sh, local := s.locate(n)
	sh.mu.RLock()
	ok := sh.st.Touched(local)
	sh.mu.RUnlock()
	return ok
}

// ClearNode resets node n to the cold-start condition (see Store.ClearNode),
// locking only n's shard.
func (s *Sharded) ClearNode(n int32) {
	sh, local := s.locate(n)
	sh.mu.Lock()
	sh.st.ClearNode(local)
	sh.mu.Unlock()
}

// Grow extends the store to hold n nodes, preserving existing contents. It
// locks every shard, but only to extend their indexes — no row moves — so
// it must not be called while the caller holds any per-node operation open.
// No-op when n ≤ NumNodes.
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

// Reset makes every node untouched and drops every row.
func (s *Sharded) Reset() {
	s.lockAll()
	for i := range s.shards {
		s.shards[i].st.Reset()
	}
	s.unlockAll()
}

// Occupancy sums the shards' occupancy, one shard at a time under its read
// lock (cross-shard it is not a snapshot).
func (s *Sharded) Occupancy() Occupancy {
	var o Occupancy
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		so := sh.st.occupancy()
		sh.mu.RUnlock()
		o.TouchedNodes += so.TouchedNodes
		o.FreeRows += so.FreeRows
		o.Slabs += so.Slabs
		o.Bytes += so.Bytes
	}
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

// Row returns node n's captured embedding, last-update time and touched
// flag, so a checkpoint is encoded from the snapshot itself, not from a
// store restored from it. The embedding is a view into the immutable
// snapshot: read-only.
func (snap *ShardedSnapshot) Row(n int32) (z []float32, lastTime float64, touched bool) {
	k := len(snap.shards) // a power of two
	st, local := snap.shards[int(n)&(k-1)], n>>bits.TrailingZeros(uint(k))
	return st.Get(local), st.lastTime[local], st.Touched(local)
}

// Snapshot returns a deep, cross-shard-consistent copy of the store: all
// shards are locked for the duration, so it pairs with Restore to bracket
// replay experiments exactly like the flat store's Snapshot.
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
		panic(fmt.Sprintf("state: restore across shard counts (%d vs %d)", len(snap.shards), len(s.shards)))
	}
	s.lockAll()
	for i := range s.shards {
		s.shards[i].st = snap.shards[i].clone()
	}
	s.numNodes.Store(int64(snap.numNodes))
	s.unlockAll()
}
