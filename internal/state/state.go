// Package state stores APAN's node memory. Per node it keeps one record: the
// last computed embedding z(t−) with its update time, and the node's
// mailbox, a fixed number of slots holding (mail vector, timestamp) pairs.
// The synchronous link reads both together (paper §3: mailbox read, then
// attention); the asynchronous link writes z through Set and mail through
// Deliver. The default mailbox update rule ψ is a FIFO ring (§3.5); readout
// returns mails sorted by timestamp, so out-of-order arrival does not
// perturb the encoder (§3.6). A key-value ψ from the paper's future-work
// list is the alternative. The memory-based baselines (TGN, JODIE, DyRep)
// keep their memories in a store with no mail slots.
//
// Store does no locking: its owner serializes writers against readers
// (core.Model does so with its writer and store locks). Grow admits new
// nodes at runtime.
//
// Memory follows the nodes that hold something, not the ID space: a node's
// record is carved from a slab of slabRecords records by its first Set or
// Deliver and handed back by ClearNode. What scales with the ID space is the
// index alone (4 bytes per node). A node without a record, or whose record
// no Set has written since it was carved, reads as untouched: a zero row and
// update time 0.
package state

import (
	"fmt"
	"unsafe"

	"apan/internal/tensor"
)

// slabRecords is how many records one slab holds: a first-touch burst or a
// checkpoint load allocates once per slabRecords nodes, not once per node.
const slabRecords = 32

// UpdateRule selects the mailbox update function ψ.
type UpdateRule int

const (
	// UpdateFIFO evicts the oldest slot once the mailbox is full (paper default).
	UpdateFIFO UpdateRule = iota
	// UpdateKeyValue blends the incoming mail into all slots weighted by key
	// similarity once the mailbox is full (memory-network-style ψ, §3.6).
	UpdateKeyValue
)

// header is a record's scalars. A carved record starts as the zero header:
// untouched, update time 0, no mail.
type header struct {
	lastTime float64
	count    int32 // mails present
	head     int32 // ring head: the slot the next delivery to a full FIFO mailbox overwrites
	touched  bool  // written by Set since the record was carved
}

// slab holds slabRecords records. Record j's header is hdr[j], its mail
// times are times[j·slots:][:slots], and its floats data[j·w:][:w] for
// w = (1+slots)·dim: the z row, then the mail slots.
type slab struct {
	hdr   [slabRecords]header
	times []float64
	data  []float32
}

// Store holds the records of every node: a dense per-node index and one
// record per node that holds something. Readers may run concurrently with
// each other, never with a writer.
//
// Invariant: rec[n] != 0 ⇔ node n holds a record. Readers only follow the
// index and read a record's z row only once Set has written it, and its
// slots only below count; only Set, Deliver and SetMails carve, so readers
// never allocate or write.
type Store struct {
	numNodes int
	slots    int
	dim      int
	rule     UpdateRule
	rec      []int32 // per node: 1 + its record number, 0 while it has none
	slabs    []slab
	next     int32     // records carved so far
	free     []int32   // record numbers (1-based) handed back by ClearNode
	zero     []float32 // dim zeros: what an untouched node reads as
}

// New creates a store of numNodes nodes with `slots` mails of dimension dim
// each (slots may be 0: a store of embeddings only), under the FIFO rule.
// Every node starts untouched with an empty mailbox.
func New(numNodes, slots, dim int) *Store {
	if numNodes <= 0 || slots < 0 || dim <= 0 {
		panic(fmt.Sprintf("state: invalid shape nodes=%d slots=%d dim=%d", numNodes, slots, dim))
	}
	return &Store{
		numNodes: numNodes,
		slots:    slots,
		dim:      dim,
		rec:      make([]int32, numNodes),
		zero:     make([]float32, dim),
	}
}

// SetRule selects the mailbox update rule ψ.
func (s *Store) SetRule(r UpdateRule) { s.rule = r }

// Dim returns the embedding and mail dimension.
func (s *Store) Dim() int { return s.dim }

// Slots returns the per-node mail slot count m.
func (s *Store) Slots() int { return s.slots }

// NumNodes returns the number of tracked nodes.
func (s *Store) NumNodes() int { return s.numNodes }

// record returns record r's (1-based, as stored in the index) header, mail
// times (slot i < count holds mail i's timestamp) and floats: the z row,
// then the slots×dim mail block.
func (s *Store) record(r int32) (*header, []float64, []float32) {
	i := int(r - 1)
	sl, j := &s.slabs[i/slabRecords], i%slabRecords
	w := (1 + s.slots) * s.dim
	return &sl.hdr[j], sl.times[j*s.slots:][:s.slots:s.slots], sl.data[j*w:][:w:w]
}

// own is the write accessor: node n's record, carved on n's first write
// from the free list, else from the last slab, else from a new one. A carved
// record has the zero header; its floats and times are left as they were,
// since a reader sees z only once Set has written it and a slot only once a
// delivery has.
func (s *Store) own(n int32) (*header, []float64, []float32) {
	r := s.rec[n]
	if r != 0 {
		return s.record(r)
	}
	if k := len(s.free); k > 0 {
		r, s.free = s.free[k-1], s.free[:k-1]
	} else {
		if int(s.next) == len(s.slabs)*slabRecords {
			s.slabs = append(s.slabs, slab{
				times: make([]float64, slabRecords*s.slots),
				data:  make([]float32, slabRecords*(1+s.slots)*s.dim),
			})
		}
		s.next++
		r = s.next
	}
	s.rec[n] = r
	h, times, f := s.record(r)
	*h = header{}
	return h, times, f
}

// Get returns a read-only view of node n's embedding z(t−).
func (s *Store) Get(n int32) []float32 {
	if r := s.rec[n]; r != 0 {
		if h, _, f := s.record(r); h.touched {
			return f[:s.dim:s.dim]
		}
	}
	return s.zero
}

// CopyTo copies node n's embedding into dst (len ≥ Dim).
func (s *Store) CopyTo(n int32, dst []float32) {
	copy(dst, s.Get(n))
}

// Set overwrites node n's embedding with z[:Dim] and stamps its update
// time. The row is written in full, so a reused record needs no clearing.
func (s *Store) Set(n int32, z []float32, t float64) {
	h, _, f := s.own(n)
	copy(f, z[:s.dim])
	h.lastTime, h.touched = t, true
}

// LastTime returns when node n was last updated (0 if never).
func (s *Store) LastTime(n int32) float64 {
	if r := s.rec[n]; r != 0 {
		h, _, _ := s.record(r)
		return h.lastTime
	}
	return 0
}

// Touched reports whether node n has been updated since it was last cold.
func (s *Store) Touched(n int32) bool {
	if r := s.rec[n]; r != 0 {
		h, _, _ := s.record(r)
		return h.touched
	}
	return false
}

// Len returns the number of mails currently in node n's mailbox.
func (s *Store) Len(n int32) int {
	if r := s.rec[n]; r != 0 {
		h, _, _ := s.record(r)
		return int(h.count)
	}
	return 0
}

// Deliver applies ψ to insert mail (with timestamp ts) into node n's
// mailbox. mail must have length Dim, and the store must have slots.
func (s *Store) Deliver(n int32, mail []float32, ts float64) {
	if len(mail) != s.dim || s.slots == 0 {
		panic(fmt.Sprintf("state: mail of dim %d into %d slots of dim %d", len(mail), s.slots, s.dim))
	}
	h, times, f := s.own(n)
	if s.rule == UpdateKeyValue && int(h.count) == s.slots {
		s.deliverKV(times, f[s.dim:], mail, ts)
		return
	}
	var i int32
	if int(h.count) < s.slots {
		i = h.count
		h.count++
	} else {
		i = h.head
		h.head = (h.head + 1) % int32(s.slots)
	}
	copy(f[s.dim+int(i)*s.dim:], mail)
	times[i] = ts
}

// SetMails replaces node n's mailbox with len(ts) ≤ Slots mails, mail i
// (mails[i·dim:(i+1)·dim], stamped ts[i]) in slot i — what delivering them
// one by one into an empty mailbox leaves under either ψ, without the
// per-mail dispatch. It is ReadSorted's inverse for a checkpoint load.
// Node n's embedding is not touched.
func (s *Store) SetMails(n int32, mails []float32, ts []float64) {
	c := len(ts)
	if c > s.slots || len(mails) != c*s.dim {
		panic(fmt.Sprintf("state: SetMails of %d floats and %d times into %d slots of dimension %d", len(mails), c, s.slots, s.dim))
	}
	if c == 0 && s.rec[n] == 0 {
		return
	}
	h, times, f := s.own(n)
	copy(f[s.dim:], mails)
	copy(times, ts)
	h.count, h.head = int32(c), 0
}

// deliverKV blends the mail into every slot of a full mailbox (times,
// slots) with weights softmax(M·mail/√d), and advances the timestamp of the
// most-attended slot. This keeps mailbox capacity fixed while letting
// recurring patterns reinforce a slot instead of evicting history.
func (s *Store) deliverKV(times []float64, slots, mail []float32, ts float64) {
	var wBuf [64]float32
	var w []float32
	if s.slots <= len(wBuf) {
		w = wBuf[:s.slots]
	} else {
		w = make([]float32, s.slots)
	}
	scale := 1 / tensor.Sqrt32(float32(s.dim))
	for i := range w {
		w[i] = tensor.Dot(slots[i*s.dim:(i+1)*s.dim], mail) * scale
	}
	tensor.SoftmaxRow(w)
	best, bestW := 0, w[0]
	for i := 1; i < s.slots; i++ {
		if w[i] > bestW {
			best, bestW = i, w[i]
		}
	}
	for i, wi := range w {
		slot := slots[i*s.dim : (i+1)*s.dim]
		for j, m := range mail {
			slot[j] += wi * (m - slot[j])
		}
	}
	times[best] = ts
}

// ReadSorted copies node n's mails into buf (capacity ≥ slots×dim rows used
// in order) sorted by ascending timestamp, returning the mail count and the
// matching timestamps in tsOut (len ≥ slots). Sorting at readout is what
// makes the encoder insensitive to arrival order (§3.6).
func (s *Store) ReadSorted(n int32, buf []float32, tsOut []float64) int {
	r := s.rec[n]
	if r == 0 {
		return 0
	}
	h, times, f := s.record(r)
	c := int(h.count)
	if c == 0 {
		return 0
	}
	if len(buf) < c*s.dim || len(tsOut) < c {
		panic(fmt.Sprintf("state: ReadSorted buffer too small (%d floats, %d times) for %d mails", len(buf), len(tsOut), c))
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
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < c; i++ {
		j := i
		for j > 0 && times[idx[j]] < times[idx[j-1]] {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			j--
		}
	}
	mails := f[s.dim:]
	for k, i := range idx {
		copy(buf[k*s.dim:(k+1)*s.dim], mails[i*s.dim:(i+1)*s.dim])
		tsOut[k] = times[i]
	}
	return c
}

// Grow extends the store to hold n nodes, preserving existing contents. New
// nodes start untouched with empty mailboxes: only the index grows. No-op
// when n ≤ NumNodes.
func (s *Store) Grow(n int) {
	if n <= s.numNodes {
		return
	}
	s.rec = append(s.rec, make([]int32, n-s.numNodes)...)
	s.numNodes = n
}

// Clone returns a deep copy of the store: the index, the update rule and
// the records, carved afresh in node order. The free list stays behind.
// core takes its runtime images this way.
func (s *Store) Clone() *Store {
	c := New(s.numNodes, s.slots, s.dim)
	c.rule = s.rule
	for n, r := range s.rec {
		if r != 0 {
			h, times, f := s.record(r)
			ch, ctimes, cf := c.own(int32(n))
			*ch = *h
			copy(ctimes, times)
			copy(cf, f)
		}
	}
	return c
}

// ClearNode resets node n to the cold-start condition — zero embedding,
// update time 0, untouched, empty mailbox: indistinguishable from a node
// the stream has never named — and hands its record to the free list, so
// an evict/readmit cycle allocates nothing in steady state.
func (s *Store) ClearNode(n int32) {
	if r := s.rec[n]; r != 0 {
		s.free = append(s.free, r)
		s.rec[n] = 0
	}
}

// Reset makes every node cold and drops every record: the slabs go to the
// collector, and only the slab and free lists keep their capacity.
func (s *Store) Reset() {
	clear(s.rec)
	clear(s.slabs)
	s.slabs, s.next, s.free = s.slabs[:0], 0, s.free[:0]
}

// Occupancy is a point-in-time view of the record memory a store holds. Its
// JSON keys are the serving stats' "mailbox" object's, kept from when the
// mailboxes had a store of their own: a mail block is now a record.
type Occupancy struct {
	// NodesWithMail counts nodes holding at least one mail.
	NodesWithMail int `json:"nodes_with_mail"`
	// Records counts records owned by a node; FreeRecords those ClearNode
	// handed back and no write has reused yet.
	Records     int `json:"live_blocks"`
	FreeRecords int `json:"free_blocks"`
	// Slabs counts record slabs; Bytes is the record memory they hold
	// (headers, mail times, z rows and mail blocks). The per-node index is
	// not included.
	Slabs int   `json:"-"`
	Bytes int64 `json:"bytes"`
}

// Occupancy counts nodes with mail, live and free records, slabs and
// record bytes.
func (s *Store) Occupancy() Occupancy {
	o := Occupancy{FreeRecords: len(s.free), Slabs: len(s.slabs)}
	for _, r := range s.rec {
		if r != 0 {
			o.Records++
			if h, _, _ := s.record(r); h.count > 0 {
				o.NodesWithMail++
			}
		}
	}
	for i := range s.slabs {
		sl := &s.slabs[i]
		o.Bytes += int64(unsafe.Sizeof(sl.hdr)) + 8*int64(len(sl.times)) + 4*int64(len(sl.data))
	}
	return o
}
