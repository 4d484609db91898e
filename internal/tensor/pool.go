package tensor

import "math/bits"

// Pool recycles Matrix values (struct and backing slice together) by
// power-of-two size class, so a steady-state inference workload performs no
// heap allocation: every Get after warm-up pops a previously Put matrix
// whose capacity already covers the requested shape.
//
// A Pool is NOT safe for concurrent use. The intended ownership model is
// one Pool per tape (each core pass owns its own), never shared across
// goroutines; cross-goroutine recycling happens a level up, where core.Model
// keeps whole passes on a mutex-guarded freelist.
type Pool struct {
	// classes[c] holds free matrices whose Data capacity is exactly 1<<c.
	classes [maxSizeClass][]*Matrix
	gets    int64
	misses  int64
}

const maxSizeClass = 31

// sizeClass returns the smallest c with 1<<c ≥ n (n ≥ 1).
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a zeroed rows×cols matrix, reusing pooled storage when a
// matrix of the right size class is free.
func (p *Pool) Get(rows, cols int) *Matrix {
	m := p.GetRaw(rows, cols)
	clear(m.Data)
	return m
}

// GetRaw is Get without the zeroing: reused storage carries stale values.
// Use it only when every element of the result is about to be written —
// saving the memset matters, since op outputs in the serving hot path sum
// to megabytes per batch.
func (p *Pool) GetRaw(rows, cols int) *Matrix {
	n := rows * cols
	p.gets++
	if n == 0 {
		return &Matrix{Rows: rows, Cols: cols}
	}
	c := sizeClass(n)
	if c >= maxSizeClass {
		// Too large to class: plain allocation, dropped again on Put.
		p.misses++
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, n)}
	}
	if free := p.classes[c]; len(free) > 0 {
		m := free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
		return m
	}
	p.misses++
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, n, 1<<c)}
}

// Put returns m to the pool for reuse. m must not be used afterwards.
// Matrices whose capacity is not an exact power of two (i.e. not allocated
// by Get) are dropped rather than pooled, so Put is safe on any matrix.
func (p *Pool) Put(m *Matrix) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	c := bits.Len(uint(cap(m.Data))) - 1
	if 1<<c != cap(m.Data) || c >= maxSizeClass {
		return
	}
	m.Data = m.Data[:cap(m.Data)]
	p.classes[c] = append(p.classes[c], m)
}

// Stats reports Get calls and how many had to allocate; after warm-up the
// miss count should stop growing.
func (p *Pool) Stats() (gets, misses int64) { return p.gets, p.misses }
