// Package state stores the last computed embedding z(t−) and last-update
// time of every node. APAN and the memory-based baselines (TGN, JODIE,
// DyRep) read this store synchronously instead of querying the graph.
//
// Store does no locking: its owner serializes writers against readers
// (core.Model does so with its writer and store locks). Grow admits new
// nodes at runtime.
//
// State memory follows touched nodes, not the ID space: a node's dim-wide
// row is carved from a slab of slabRows rows by its first Set and handed
// back by ClearNode. What scales with the ID space is the index only (row
// number and update time: 12 bytes per node). An untouched node has no row
// and reads as zeros.
package state

import "fmt"

// slabRows is how many rows one slab holds: a first-touch burst or a
// checkpoint load allocates once per slabRows nodes, not once per node.
const slabRows = 32

// Store holds per-node embeddings: a dense per-node index and one row per
// touched node. Readers may run concurrently with each other, never with a
// writer.
//
// Invariant: row[n] != 0 ⇔ node n is touched, and then its embedding is
// rowData(row[n]). Readers only follow the index; only Set carves a row, so
// readers never allocate or write.
type Store struct {
	numNodes int
	dim      int
	row      []int32   // per node: 1 + its row number, 0 while untouched
	lastTime []float64 // per node
	// slabs hold the rows: row r (0-based) is slabs[r/slabRows] at
	// r%slabRows·dim. Each slab has room for slabRows rows, except that a
	// Clone's last slab is cut to the rows it holds.
	slabs [][]float32
	next  int32     // the 0-based row number the next carve takes if its slab has room
	free  []int32   // row numbers (1-based) handed back by ClearNode
	zero  []float32 // dim zeros: what an untouched node reads as
}

// New creates a store of numNodes untouched nodes.
func New(numNodes, dim int) *Store {
	if numNodes <= 0 || dim <= 0 {
		panic(fmt.Sprintf("state: invalid shape nodes=%d dim=%d", numNodes, dim))
	}
	return &Store{
		numNodes: numNodes,
		dim:      dim,
		row:      make([]int32, numNodes),
		lastTime: make([]float64, numNodes),
		zero:     make([]float32, dim),
	}
}

// Dim returns the embedding dimension.
func (s *Store) Dim() int { return s.dim }

// NumNodes returns the number of tracked nodes.
func (s *Store) NumNodes() int { return s.numNodes }

// rowData is row r's dim floats (r is 1-based, as stored in the index).
func (s *Store) rowData(r int32) []float32 {
	i := int(r - 1)
	return s.slabs[i/slabRows][i%slabRows*s.dim:][:s.dim:s.dim]
}

// Get returns a read-only view of node n's embedding z(t−).
func (s *Store) Get(n int32) []float32 {
	if r := s.row[n]; r != 0 {
		return s.rowData(r)
	}
	return s.zero
}

// CopyTo copies node n's embedding into dst (len ≥ Dim).
func (s *Store) CopyTo(n int32, dst []float32) {
	copy(dst, s.Get(n))
}

// Grow extends the store to hold n nodes, preserving existing contents. New
// nodes start untouched: only the index grows. No-op when n ≤ NumNodes.
func (s *Store) Grow(n int) {
	if n <= s.numNodes {
		return
	}
	s.row = append(s.row, make([]int32, n-s.numNodes)...)
	s.lastTime = append(s.lastTime, make([]float64, n-s.numNodes)...)
	s.numNodes = n
}

// Clone returns a deep copy of the store: the index and the live rows,
// packed in node order into one allocation cut into slabs. The free list
// stays behind, and the last slab holds only the rows it needs. core takes
// its runtime images this way.
func (s *Store) Clone() *Store {
	c := &Store{
		numNodes: s.numNodes,
		dim:      s.dim,
		row:      make([]int32, len(s.row)),
		lastTime: append([]float64(nil), s.lastTime...),
		zero:     s.zero,
	}
	live := 0
	for _, r := range s.row {
		if r != 0 {
			live++
		}
	}
	buf := make([]float32, live*s.dim)
	c.slabs = make([][]float32, 0, (live+slabRows-1)/slabRows)
	for len(buf) > 0 {
		n := min(len(buf), slabRows*s.dim)
		c.slabs, buf = append(c.slabs, buf[:n:n]), buf[n:]
	}
	for n, r := range s.row {
		if r != 0 {
			c.next++
			c.row[n] = c.next
			copy(c.rowData(c.next), s.rowData(r))
		}
	}
	return c
}

// carve hands out a row number never used: the next row of the last slab,
// or the first of a new one when the last slab has no room left.
func (s *Store) carve() int32 {
	i := int(s.next)
	if k := len(s.slabs); i == k*slabRows || i%slabRows*s.dim == len(s.slabs[k-1]) {
		i = k * slabRows
		s.slabs = append(s.slabs, make([]float32, slabRows*s.dim))
	}
	s.next = int32(i + 1)
	return s.next
}

// Set overwrites node n's embedding with z[:Dim] and stamps its update
// time. A node's first Set takes a row from the free list or carves one
// from a slab; the row is written in full, so a reused row needs no
// clearing.
func (s *Store) Set(n int32, z []float32, t float64) {
	r := s.row[n]
	if r == 0 {
		if k := len(s.free); k > 0 {
			r, s.free = s.free[k-1], s.free[:k-1]
		} else {
			r = s.carve()
		}
		s.row[n] = r
	}
	copy(s.rowData(r), z[:s.dim])
	s.lastTime[n] = t
}

// LastTime returns when node n was last updated (0 if never).
func (s *Store) LastTime(n int32) float64 { return s.lastTime[n] }

// Touched reports whether node n has ever been updated.
func (s *Store) Touched(n int32) bool { return s.row[n] != 0 }

// ClearNode resets node n to the never-updated cold-start condition: zero
// embedding, zero update time, untouched — and hands its row to the free
// list, so an evict/readmit cycle allocates nothing in steady state. This is
// the state half of cold-state eviction: an evicted node is
// indistinguishable from one the stream has never named.
func (s *Store) ClearNode(n int32) {
	if r := s.row[n]; r != 0 {
		s.free = append(s.free, r)
		s.row[n] = 0
	}
	s.lastTime[n] = 0
}

// Reset makes every node untouched and drops every row: the slabs go to
// the collector, and only the slab and free lists keep their capacity.
func (s *Store) Reset() {
	clear(s.row)
	clear(s.lastTime)
	clear(s.slabs)
	s.slabs, s.next, s.free = s.slabs[:0], 0, s.free[:0]
}

// Occupancy is a point-in-time view of the state memory a store holds.
type Occupancy struct {
	// TouchedNodes counts nodes holding a row; FreeRows the rows ClearNode
	// handed back that no Set has reused yet.
	TouchedNodes int
	FreeRows     int
	// Slabs counts row slabs; Bytes is the row memory they hold. The
	// per-node index is not included.
	Slabs int
	Bytes int64
}

// Occupancy counts touched nodes, free rows, slabs and row bytes.
func (s *Store) Occupancy() Occupancy {
	o := Occupancy{FreeRows: len(s.free), Slabs: len(s.slabs)}
	for _, r := range s.row {
		if r != 0 {
			o.TouchedNodes++
		}
	}
	for _, sl := range s.slabs {
		o.Bytes += int64(len(sl)) * 4
	}
	return o
}
