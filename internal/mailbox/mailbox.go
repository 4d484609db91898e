// Package mailbox implements APAN's per-node mail store: a fixed number of
// slots per node holding (mail vector, timestamp) pairs. The default update
// rule ψ is a FIFO ring (paper §3.5); readout returns mails sorted by
// timestamp so that out-of-order event arrival — unavoidable in distributed
// streaming systems — does not perturb the encoder (paper §3.6). A
// key-value update rule from the paper's future-work list is provided as an
// alternative ψ.
//
// Store does no locking: its owner serializes writers against readers
// (core.Model does so with its writer and store locks). Grow admits new
// nodes at runtime.
//
// Mail memory follows live mailboxes, not the ID space: a node's slots×dim
// mail block is allocated by its first Deliver and handed back by ClearNode.
// What scales with the ID space is the index only (block pointer, slot
// timestamps, count and ring head: 32+8·slots bytes per node).
package mailbox

import (
	"fmt"

	"apan/internal/tensor"
)

// UpdateRule selects the mailbox update function ψ.
type UpdateRule int

const (
	// UpdateFIFO evicts the oldest slot once the mailbox is full (paper default).
	UpdateFIFO UpdateRule = iota
	// UpdateKeyValue blends the incoming mail into all slots weighted by key
	// similarity once the mailbox is full (memory-network-style ψ, §3.6).
	UpdateKeyValue
)

// Store holds the mailboxes of every node: a dense per-node index and one
// mail block per node that has mail. Readers may run concurrently with each
// other, never with a writer.
//
// Invariant: blocks[n] != nil ⇔ count[n] > 0. Readers (Len, ReadSorted) only
// touch slots < count[n], which therefore always have a block, and go
// through slot, which cannot allocate; only Deliver calls block. That is
// what keeps readers allocation- and write-free.
type Store struct {
	numNodes int
	slots    int
	dim      int
	rule     UpdateRule

	blocks [][]float32 // per node: slots × dim mail block, nil while the mailbox is empty
	free   [][]float32 // blocks handed back by ClearNode, reused by block
	times  []float64   // numNodes × slots; NaN-free, zero means "slot i empty" iff i >= count
	count  []int32     // mails currently present per node
	head   []int32     // ring head: next slot to overwrite when full
}

// New creates an empty store for numNodes mailboxes of `slots` mails of
// dimension dim each, using the FIFO update rule.
func New(numNodes, slots, dim int) *Store {
	if numNodes <= 0 || slots <= 0 || dim <= 0 {
		panic(fmt.Sprintf("mailbox: invalid shape nodes=%d slots=%d dim=%d", numNodes, slots, dim))
	}
	return &Store{
		numNodes: numNodes,
		slots:    slots,
		dim:      dim,
		blocks:   make([][]float32, numNodes),
		times:    make([]float64, numNodes*slots),
		count:    make([]int32, numNodes),
		head:     make([]int32, numNodes),
	}
}

// NewSharded returns New(numNodes, slots, dim); shards is ignored.
//
// Deprecated: the store has no lock stripes. Kept only because the frozen
// benchmark calls it; the next benchmark change should call New and
// delete it.
func NewSharded(numNodes, slots, dim, shards int) *Store { return New(numNodes, slots, dim) }

// SetRule selects the update rule ψ.
func (s *Store) SetRule(r UpdateRule) { s.rule = r }

// Slots returns the per-node slot count m.
func (s *Store) Slots() int { return s.slots }

// Dim returns the mail dimension d.
func (s *Store) Dim() int { return s.dim }

// NumNodes returns the number of mailboxes.
func (s *Store) NumNodes() int { return s.numNodes }

// Len returns the number of mails currently in node n's mailbox.
func (s *Store) Len(n int32) int { return int(s.count[n]) }

// slot is the non-allocating accessor for slot i < count[n] of node n (a
// node without a block has count 0, so no reader gets here).
func (s *Store) slot(n int32, i int) []float32 {
	return s.blocks[n][i*s.dim : (i+1)*s.dim]
}

// block is the write accessor: node n's mail block, taken from the free
// list or the heap on n's first delivery. Writers only.
func (s *Store) block(n int32) []float32 {
	b := s.blocks[n]
	if b == nil {
		if k := len(s.free); k > 0 {
			b, s.free[k-1], s.free = s.free[k-1], nil, s.free[:k-1]
		} else {
			b = make([]float32, s.slots*s.dim)
		}
		s.blocks[n] = b
	}
	return b
}

// Deliver applies ψ to insert mail (with timestamp ts) into node n's
// mailbox. mail must have length Dim.
func (s *Store) Deliver(n int32, mail []float32, ts float64) {
	if len(mail) != s.dim {
		panic(fmt.Sprintf("mailbox: mail dim %d, want %d", len(mail), s.dim))
	}
	if s.rule == UpdateKeyValue && int(s.count[n]) == s.slots {
		s.deliverKV(n, mail, ts)
		return
	}
	var i int32
	if int(s.count[n]) < s.slots {
		i = s.count[n]
		s.count[n]++
	} else {
		i = s.head[n]
		s.head[n] = (s.head[n] + 1) % int32(s.slots)
	}
	copy(s.block(n)[int(i)*s.dim:], mail)
	s.times[int(n)*s.slots+int(i)] = ts
}

// SetMails replaces node n's mailbox with len(ts) ≤ Slots mails, mail i
// (mails[i·dim:(i+1)·dim], stamped ts[i]) in slot i — what delivering them
// one by one into an empty mailbox leaves under either ψ, without the
// per-mail dispatch. It is ReadSorted's inverse for a checkpoint load.
func (s *Store) SetMails(n int32, mails []float32, ts []float64) {
	c := len(ts)
	if c > s.slots || len(mails) != c*s.dim {
		panic(fmt.Sprintf("mailbox: SetMails of %d floats and %d times into %d slots of dimension %d", len(mails), c, s.slots, s.dim))
	}
	s.ClearNode(n)
	if c == 0 {
		return
	}
	copy(s.block(n), mails)
	copy(s.times[int(n)*s.slots:], ts)
	s.count[n] = int32(c)
}

// deliverKV blends the mail into every slot with weights softmax(M·mail/√d),
// and advances the timestamp of the most-attended slot. This keeps mailbox
// capacity fixed while letting recurring patterns reinforce a slot instead
// of evicting history.
func (s *Store) deliverKV(n int32, mail []float32, ts float64) {
	var wBuf [64]float32
	var w []float32
	if s.slots <= len(wBuf) {
		w = wBuf[:s.slots]
	} else {
		w = make([]float32, s.slots)
	}
	scale := 1 / tensor.Sqrt32(float32(s.dim))
	for i := 0; i < s.slots; i++ {
		w[i] = tensor.Dot(s.slot(n, i), mail) * scale
	}
	tensor.SoftmaxRow(w)
	best, bestW := 0, w[0]
	for i := 1; i < s.slots; i++ {
		if w[i] > bestW {
			best, bestW = i, w[i]
		}
	}
	for i := 0; i < s.slots; i++ {
		slot := s.slot(n, i)
		wi := w[i]
		for j, m := range mail {
			slot[j] += wi * (m - slot[j])
		}
	}
	s.times[int(n)*s.slots+best] = ts
}

// ReadSorted copies node n's mails into buf (capacity ≥ slots×dim rows used
// in order) sorted by ascending timestamp, returning the mail count and the
// matching timestamps in tsOut (len ≥ slots). Sorting at readout is what
// makes the encoder insensitive to arrival order (§3.6).
func (s *Store) ReadSorted(n int32, buf []float32, tsOut []float64) int {
	c := int(s.count[n])
	if c == 0 {
		return 0
	}
	if len(buf) < c*s.dim || len(tsOut) < c {
		panic(fmt.Sprintf("mailbox: ReadSorted buffer too small (%d floats, %d times) for %d mails", len(buf), len(tsOut), c))
	}
	// Stable insertion sort over an index permutation. Mailboxes hold ~10
	// slots, where this beats sort.SliceStable and — unlike the reflection
	// path — performs zero allocations, keeping the serving gather off the
	// heap. Stability matches SliceStable's output exactly.
	var idxBuf [64]int
	var idx []int
	if c <= len(idxBuf) {
		idx = idxBuf[:c]
	} else {
		idx = make([]int, c)
	}
	base := int(n) * s.slots
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < c; i++ {
		j := i
		for j > 0 && s.times[base+idx[j]] < s.times[base+idx[j-1]] {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			j--
		}
	}
	for r, i := range idx {
		copy(buf[r*s.dim:(r+1)*s.dim], s.slot(n, i))
		tsOut[r] = s.times[base+i]
	}
	return c
}

// Grow extends the store to hold n mailboxes, preserving existing contents.
// New mailboxes start empty and without a block: only the index grows. No-op
// when n ≤ NumNodes.
func (s *Store) Grow(n int) {
	if n <= s.numNodes {
		return
	}
	add := n - s.numNodes
	s.blocks = append(s.blocks, make([][]float32, add)...)
	s.times = append(s.times, make([]float64, add*s.slots)...)
	s.count = append(s.count, make([]int32, add)...)
	s.head = append(s.head, make([]int32, add)...)
	s.numNodes = n
}

// clone deep-copies the index and the live mail blocks (used by snapshots);
// the free list stays behind.
func (s *Store) clone() *Store {
	c := &Store{
		numNodes: s.numNodes,
		slots:    s.slots,
		dim:      s.dim,
		rule:     s.rule,
		blocks:   make([][]float32, len(s.blocks)),
		times:    append([]float64(nil), s.times...),
		count:    append([]int32(nil), s.count...),
		head:     append([]int32(nil), s.head...),
	}
	for n, b := range s.blocks {
		if b != nil {
			c.blocks[n] = append([]float32(nil), b...)
		}
	}
	return c
}

// ClearNode empties node n's mailbox back to the cold-start condition —
// the mailbox half of cold-state eviction — and hands its mail block to the
// free list, so an evict/readmit cycle allocates nothing in steady state.
// The block is not zeroed: Deliver overwrites a slot in full before count
// makes it readable.
func (s *Store) ClearNode(n int32) {
	if b := s.blocks[n]; b != nil {
		s.free = append(s.free, b)
		s.blocks[n] = nil
	}
	clear(s.times[int(n)*s.slots:][:s.slots])
	s.count[n] = 0
	s.head[n] = 0
}

// Reset empties every mailbox and drops every mail block, free list
// included.
func (s *Store) Reset() {
	clear(s.blocks)
	s.free = nil
	clear(s.times)
	clear(s.count)
	clear(s.head)
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

// Occupancy counts mailboxes with mail and live/free mail blocks.
func (s *Store) Occupancy() Occupancy {
	o := Occupancy{FreeBlocks: len(s.free)}
	for n, b := range s.blocks {
		if b != nil {
			o.LiveBlocks++
		}
		if s.count[n] > 0 {
			o.NodesWithMail++
		}
	}
	o.Bytes = int64(o.LiveBlocks+o.FreeBlocks) * int64(s.slots*s.dim) * 4
	return o
}

// Snapshot captures the full store for later Restore (used to replay
// validation/test streams from a fixed point and to encode checkpoints).
// Snapshots are immutable: Restore and checkpoint encoding clone or read
// out of them, never mutate them.
type Snapshot struct{ st *Store }

// ReadSorted is Store.ReadSorted over the captured contents, so a
// checkpoint is encoded from the snapshot itself, not from a store restored
// from it.
func (snap *Snapshot) ReadSorted(n int32, buf []float32, tsOut []float64) int {
	return snap.st.ReadSorted(n, buf, tsOut)
}

// Snapshot returns a deep copy of the store contents.
func (s *Store) Snapshot() *Snapshot { return &Snapshot{s.clone()} }

// Restore resets the store to a previously captured snapshot, node count
// and update rule included.
func (s *Store) Restore(snap *Snapshot) { *s = *snap.st.clone() }
