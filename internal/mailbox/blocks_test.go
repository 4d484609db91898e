package mailbox

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"apan/internal/tensor"
)

// denseRef is the layout Store had before per-node blocks — one
// numNodes×slots×dim array, zeroed on clear — kept here as the independent
// oracle of the differential below. It shares no code with Store except the
// tensor primitives ψ's key-value rule is defined in terms of.
type denseRef struct {
	slots, dim  int
	rule        UpdateRule
	data        []float32
	times       []float64
	count, head []int
}

func newDenseRef(nodes, slots, dim int, rule UpdateRule) *denseRef {
	return &denseRef{slots: slots, dim: dim, rule: rule, data: make([]float32, nodes*slots*dim),
		times: make([]float64, nodes*slots), count: make([]int, nodes), head: make([]int, nodes)}
}

func (d *denseRef) slot(n, i int) []float32 {
	return d.data[(n*d.slots+i)*d.dim:][:d.dim]
}

func (d *denseRef) deliver(n int, mail []float32, ts float64) {
	i := d.count[n]
	switch {
	case i < d.slots:
		d.count[n]++
	case d.rule == UpdateFIFO:
		i = d.head[n]
		d.head[n] = (i + 1) % d.slots
	default:
		w := make([]float32, d.slots)
		scale := 1 / tensor.Sqrt32(float32(d.dim))
		for k := range w {
			w[k] = tensor.Dot(d.slot(n, k), mail) * scale
		}
		tensor.SoftmaxRow(w)
		i = 0
		for k := range w {
			if w[k] > w[i] {
				i = k
			}
			for j, s := 0, d.slot(n, k); j < d.dim; j++ {
				s[j] += w[k] * (mail[j] - s[j])
			}
		}
		d.times[n*d.slots+i] = ts
		return
	}
	copy(d.slot(n, i), mail)
	d.times[n*d.slots+i] = ts
}

// read returns node n's mails and times sorted by ascending time, stably.
func (d *denseRef) read(n int) ([]float32, []float64) {
	idx := make([]int, d.count[n])
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return d.times[n*d.slots+idx[a]] < d.times[n*d.slots+idx[b]] })
	var mails []float32
	var times []float64
	for _, i := range idx {
		mails = append(mails, d.slot(n, i)...)
		times = append(times, d.times[n*d.slots+i])
	}
	return mails, times
}

func (d *denseRef) clear(lo, hi int) { // nodes [lo, hi)
	clear(d.data[lo*d.slots*d.dim : hi*d.slots*d.dim])
	clear(d.times[lo*d.slots : hi*d.slots])
	clear(d.count[lo:hi])
	clear(d.head[lo:hi])
}

func (d *denseRef) grow(n int) {
	add := n - len(d.count)
	d.data = append(d.data, make([]float32, add*d.slots*d.dim)...)
	d.times = append(d.times, make([]float64, add*d.slots)...)
	d.count = append(d.count, make([]int, add)...)
	d.head = append(d.head, make([]int, add)...)
}

func (d *denseRef) clone() *denseRef {
	c := *d
	c.data = append([]float32(nil), d.data...)
	c.times = append([]float64(nil), d.times...)
	c.count = append([]int(nil), d.count...)
	c.head = append([]int(nil), d.head...)
	return &c
}

// TestBlocksMatchDenseQuick drives Store and the dense reference through the
// same random Deliver/ClearNode/Grow/Reset/Snapshot/Restore/clone sequence,
// under both ψ rules, and demands bit-identical Len and ReadSorted on every
// node after every step — and that the block invariant (a block iff mail)
// holds throughout.
func TestBlocksMatchDenseQuick(t *testing.T) {
	const slots, dim = 3, 5
	for _, rule := range []UpdateRule{UpdateFIFO, UpdateKeyValue} {
		prop := func(seed int64, opCount uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			nodes := 1 + rng.Intn(12)
			st := New(nodes, slots, dim)
			st.SetRule(rule)
			ref := newDenseRef(nodes, slots, dim, rule)
			var snap *Snapshot
			var refSnap *denseRef

			mail := make([]float32, dim)
			buf := make([]float32, slots*dim)
			ts := make([]float64, slots)
			for op := int(opCount%400) + 1; op > 0; op-- {
				nodes = st.NumNodes()
				n := rng.Intn(nodes)
				switch k := rng.Intn(100); {
				case k < 70:
					for j := range mail {
						mail[j] = rng.Float32()*2 - 1
					}
					when := float64(rng.Intn(20)) // ties exercise sort stability
					st.Deliver(int32(n), mail, when)
					ref.deliver(n, mail, when)
				case k < 80:
					st.ClearNode(int32(n))
					ref.clear(n, n+1)
				case k < 85:
					st.Grow(nodes + rng.Intn(4))
					ref.grow(st.NumNodes())
				case k < 87:
					st.Reset()
					ref.clear(0, nodes)
				case k < 92:
					snap, refSnap = st.Snapshot(), ref.clone()
				case k < 97:
					if snap != nil {
						st.Restore(snap)
						ref = refSnap.clone()
					}
				default:
					// Continue on a clone and scribble on the original: any
					// block the two still share shows up as a mismatch.
					old := st
					st = st.clone()
					for i := range mail {
						mail[i] = -9
					}
					for i := 0; i < old.NumNodes(); i++ {
						old.Deliver(int32(i), mail, 99)
					}
				}
				if st.NumNodes() != len(ref.count) {
					return false
				}
				for i := 0; i < st.NumNodes(); i++ {
					wantMails, wantTimes := ref.read(i)
					c := st.ReadSorted(int32(i), buf, ts)
					if c != len(wantTimes) || st.Len(int32(i)) != c || (st.blocks[i] != nil) != (c > 0) {
						return false
					}
					for j := range wantTimes {
						if ts[j] != wantTimes[j] {
							return false
						}
					}
					for j := range wantMails {
						if buf[j] != wantMails[j] {
							return false
						}
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("rule %v: %v", rule, err)
		}
	}
}

// TestDeliverFullMailboxZeroAlloc: once a node has its block, ψ allocates
// nothing under either rule (the key-value weights live on the stack).
func TestDeliverFullMailboxZeroAlloc(t *testing.T) {
	for _, rule := range []UpdateRule{UpdateFIFO, UpdateKeyValue} {
		s := New(4, 10, 172)
		s.SetRule(rule)
		m := mail(0.5, 172)
		for i := 0; i < 10; i++ {
			s.Deliver(1, m, float64(i))
		}
		if a := testing.AllocsPerRun(100, func() { s.Deliver(1, m, 11) }); a != 0 {
			t.Errorf("rule %v: Deliver into a full mailbox allocates %v times", rule, a)
		}
	}
}

// TestGrowAllocatesIndexOnly: growing the ID space tenfold allocates index
// bytes, not mail, and creates no block.
func TestGrowAllocatesIndexOnly(t *testing.T) {
	const nodes, slots, dim = 1000, 10, 172
	s := New(nodes, slots, dim)
	for n := int32(0); n < 50; n++ {
		s.Deliver(n, mail(1, dim), 1)
	}
	before := s.Occupancy()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.Grow(10 * nodes)
	runtime.ReadMemStats(&m1)
	// Index: 32+8·slots = 112 B/node, ≈1 MB here even with append's slack;
	// the mail of 9,000 more nodes would be 62 MB.
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 4<<20 {
		t.Fatalf("Grow to %d nodes allocated %d bytes", 10*nodes, got)
	}
	if after := s.Occupancy(); after != before {
		t.Fatalf("Grow changed mail occupancy: %+v -> %+v", before, after)
	}
	if s.NumNodes() != 10*nodes || s.Len(10*nodes-1) != 0 {
		t.Fatalf("grown store: %d nodes", s.NumNodes())
	}
}

// TestReadDuringFirstDeliver races readers, under a shared lock, against
// the delivery that gives a node its block, under the exclusive lock: the
// contract core.Model keeps with its store lock. Run under -race, which
// catches a read path that writes: a reader sees the mailbox empty or
// whole, and never writes.
func TestReadDuringFirstDeliver(t *testing.T) {
	const nodes, slots, dim = 512, 2, 8
	s := New(nodes, slots, dim)
	var mu sync.RWMutex
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float32, slots*dim)
			ts := make([]float64, slots)
			for n := int32(0); n < nodes; n++ {
				for { // spin until n's first mail lands
					mu.RLock()
					c := s.ReadSorted(n, buf, ts)
					landed := s.Len(n) != 0
					mu.RUnlock()
					if c == 1 && (buf[0] != float32(n) || buf[dim-1] != float32(n)) {
						t.Errorf("node %d: torn first mail %v", n, buf[:dim])
						return
					}
					if landed {
						break
					}
				}
			}
		}()
	}
	for n := int32(0); n < nodes; n++ {
		mu.Lock()
		s.Deliver(n, mail(float32(n), dim), 1)
		mu.Unlock()
	}
	wg.Wait()
}
