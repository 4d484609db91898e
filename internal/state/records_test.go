package state

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"apan/internal/tensor"
)

// denseRef is the layout the node memory had before records — per node a
// dense z row, update time and touched flag, and one numNodes×slots×dim
// mail array, all zeroed on clear — kept here as the independent oracle of
// the differential below. It shares no code with Store except the tensor
// primitives ψ's key-value rule is defined in terms of. has tracks which
// nodes the store should hold a record for.
type denseRef struct {
	slots, dim   int
	rule         UpdateRule
	z            []float32
	last         []float64
	touched, has []bool
	data         []float32
	times        []float64
	count, head  []int
}

func newDenseRef(nodes, slots, dim int, rule UpdateRule) *denseRef {
	d := &denseRef{slots: slots, dim: dim, rule: rule}
	d.grow(nodes)
	return d
}

func (d *denseRef) slot(n, i int) []float32 {
	return d.data[(n*d.slots+i)*d.dim:][:d.dim]
}

func (d *denseRef) set(n int, z []float32, t float64) {
	copy(d.z[n*d.dim:], z)
	d.last[n], d.touched[n], d.has[n] = t, true, true
}

func (d *denseRef) deliver(n int, mail []float32, ts float64) {
	d.has[n] = true
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

func (d *denseRef) setMails(n int, mails []float32, ts []float64) {
	d.has[n] = d.has[n] || len(ts) > 0
	copy(d.data[n*d.slots*d.dim:], mails)
	copy(d.times[n*d.slots:], ts)
	d.count[n], d.head[n] = len(ts), 0
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
	clear(d.z[lo*d.dim : hi*d.dim])
	clear(d.last[lo:hi])
	clear(d.touched[lo:hi])
	clear(d.has[lo:hi])
	clear(d.data[lo*d.slots*d.dim : hi*d.slots*d.dim])
	clear(d.times[lo*d.slots : hi*d.slots])
	clear(d.count[lo:hi])
	clear(d.head[lo:hi])
}

func (d *denseRef) grow(n int) {
	add := n - len(d.count)
	d.z = append(d.z, make([]float32, add*d.dim)...)
	d.last = append(d.last, make([]float64, add)...)
	d.touched = append(d.touched, make([]bool, add)...)
	d.has = append(d.has, make([]bool, add)...)
	d.data = append(d.data, make([]float32, add*d.slots*d.dim)...)
	d.times = append(d.times, make([]float64, add*d.slots)...)
	d.count = append(d.count, make([]int, add)...)
	d.head = append(d.head, make([]int, add)...)
}

func (d *denseRef) clone() *denseRef {
	c := &denseRef{slots: d.slots, dim: d.dim, rule: d.rule}
	c.grow(len(d.count))
	copy(c.z, d.z)
	copy(c.last, d.last)
	copy(c.touched, d.touched)
	copy(c.has, d.has)
	copy(c.data, d.data)
	copy(c.times, d.times)
	copy(c.count, d.count)
	copy(c.head, d.head)
	return c
}

// TestBlocksMatchDenseQuick drives Store and the dense reference through the
// same random interleaving of Set, Deliver, SetMails, ClearNode, Grow,
// Clone and Reset, under both ψ rules and with 0, 1 and 3 mail slots, and
// demands bit-identical Get, LastTime, Touched, Len and ReadSorted on every
// node after every step. A record reused from the free list therefore never
// shows another node's row or mail. It also checks that a node holds a
// record iff something has been written to it since it was last cleared,
// and that the slabs hold every carved record with less than one slab to
// spare. (The name is kept from the mail-block store the test was first
// written for.)
func TestBlocksMatchDenseQuick(t *testing.T) {
	const dim = 5
	for _, slots := range []int{0, 1, 3} {
		for _, rule := range []UpdateRule{UpdateFIFO, UpdateKeyValue} {
			prop := func(seed int64, opCount uint16) bool {
				rng := rand.New(rand.NewSource(seed))
				nodes := 1 + rng.Intn(12)
				st := New(nodes, slots, dim)
				st.SetRule(rule)
				ref := newDenseRef(nodes, slots, dim, rule)
				var snap *Store
				var refSnap *denseRef

				vec := func(n int) []float32 {
					v := make([]float32, n)
					for j := range v {
						v[j] = rng.Float32()*2 - 1
					}
					return v
				}
				buf := make([]float32, slots*dim)
				ts := make([]float64, slots)
				for op := int(opCount%400) + 1; op > 0; op-- {
					nodes = st.NumNodes()
					n := rng.Intn(nodes)
					when := float64(rng.Intn(20)) // ties exercise sort stability
					switch k := rng.Intn(100); {
					case k < 45:
						if slots > 0 {
							mail := vec(dim)
							st.Deliver(int32(n), mail, when)
							ref.deliver(n, mail, when)
						}
					case k < 65:
						z := vec(dim)
						st.Set(int32(n), z, when)
						ref.set(n, z, when)
					case k < 70:
						c := rng.Intn(slots + 1)
						mails, times := vec(c*dim), make([]float64, c)
						for i := range times {
							times[i] = float64(rng.Intn(20))
						}
						st.SetMails(int32(n), mails, times)
						ref.setMails(n, mails, times)
					case k < 80:
						st.ClearNode(int32(n))
						ref.clear(n, n+1)
					case k < 84:
						st.Grow(nodes + rng.Intn(4))
						ref.grow(st.NumNodes())
					case k < 86:
						st.Reset()
						ref.clear(0, nodes)
					case k < 91:
						snap, refSnap = st.Clone(), ref.clone()
					case k < 96:
						if snap != nil {
							st = snap.Clone()
							ref = refSnap.clone()
						}
					default:
						// Continue on a clone and scribble on the original: any
						// record the two still share shows up as a mismatch.
						old := st
						st = st.Clone()
						junk := make([]float32, dim)
						for i := range junk {
							junk[i] = -9
						}
						for i := int32(0); i < int32(old.NumNodes()); i++ {
							old.Set(i, junk, 99)
							if slots > 0 {
								old.Deliver(i, junk, 99)
							}
						}
					}
					if st.NumNodes() != len(ref.count) {
						return false
					}
					records, withMail := 0, 0
					for i := 0; i < st.NumNodes(); i++ {
						id := int32(i)
						z := st.Get(id)
						for j := range z {
							if z[j] != ref.z[i*dim+j] {
								return false
							}
						}
						if st.LastTime(id) != ref.last[i] || st.Touched(id) != ref.touched[i] || (st.rec[i] != 0) != ref.has[i] {
							return false
						}
						wantMails, wantTimes := ref.read(i)
						c := st.ReadSorted(id, buf, ts)
						if c != len(wantTimes) || st.Len(id) != c {
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
						if ref.has[i] {
							records++
						}
						if c > 0 {
							withMail++
						}
					}
					o := st.Occupancy()
					if spare := o.Slabs*slabRecords - o.Records - o.FreeRecords; o.Records != records || o.NodesWithMail != withMail || spare < 0 || spare >= slabRecords {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
				t.Errorf("slots %d, rule %v: %v", slots, rule, err)
			}
		}
	}
}

// TestDeliverFullMailboxZeroAlloc: once a node has its record, ψ allocates
// nothing under either rule (the key-value weights live on the stack).
func TestDeliverFullMailboxZeroAlloc(t *testing.T) {
	for _, rule := range []UpdateRule{UpdateFIFO, UpdateKeyValue} {
		s := New(4, 10, 172)
		s.SetRule(rule)
		m := fill(0.5, 172)
		for i := 0; i < 10; i++ {
			s.Deliver(1, m, float64(i))
		}
		if a := testing.AllocsPerRun(100, func() { s.Deliver(1, m, 11) }); a != 0 {
			t.Errorf("rule %v: Deliver into a full mailbox allocates %v times", rule, a)
		}
	}
}

// TestReadDuringFirstDeliver races readers, under a shared lock, against
// the delivery that gives a node its record, under the exclusive lock: the
// contract core.Model keeps with its store lock. Run under -race, which
// catches a read path that writes: a reader sees the mailbox empty or
// whole, and the row zero, and never writes.
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
			z := make([]float32, dim)
			for n := int32(0); n < nodes; n++ {
				for { // spin until n's first mail lands
					mu.RLock()
					c := s.ReadSorted(n, buf, ts)
					landed := s.Len(n) != 0
					s.CopyTo(n, z)
					mu.RUnlock()
					if c == 1 && (buf[0] != float32(n) || buf[dim-1] != float32(n)) {
						t.Errorf("node %d: torn first mail %v", n, buf[:dim])
						return
					}
					if z[0] != 0 || z[dim-1] != 0 {
						t.Errorf("node %d: a delivery made the row read %v", n, z)
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
		s.Deliver(n, fill(float32(n), dim), 1)
		mu.Unlock()
	}
	wg.Wait()
}

func fill(v float32, dim int) []float32 {
	m := make([]float32, dim)
	for i := range m {
		m[i] = v
	}
	return m
}
