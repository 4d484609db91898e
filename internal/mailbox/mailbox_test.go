package mailbox

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mail(v float32, dim int) []float32 {
	m := make([]float32, dim)
	for i := range m {
		m[i] = v
	}
	return m
}

func TestDeliverAndLen(t *testing.T) {
	s := New(3, 2, 4)
	if s.Len(0) != 0 {
		t.Fatal("fresh mailbox not empty")
	}
	s.Deliver(0, mail(1, 4), 1)
	s.Deliver(0, mail(2, 4), 2)
	if s.Len(0) != 2 || s.Len(1) != 0 {
		t.Fatalf("lens: %d %d", s.Len(0), s.Len(1))
	}
}

func TestDeliverDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 1, 4).Deliver(0, mail(1, 3), 1)
}

func TestFIFOEviction(t *testing.T) {
	s := New(1, 3, 1)
	for i := 1; i <= 5; i++ {
		s.Deliver(0, []float32{float32(i)}, float64(i))
	}
	// Slots hold mails 3,4,5 (oldest two evicted).
	buf := make([]float32, 3)
	ts := make([]float64, 3)
	n := s.ReadSorted(0, buf, ts)
	if n != 3 {
		t.Fatalf("count=%d", n)
	}
	if buf[0] != 3 || buf[1] != 4 || buf[2] != 5 {
		t.Fatalf("FIFO contents: %v", buf)
	}
	if ts[0] != 3 || ts[2] != 5 {
		t.Fatalf("timestamps: %v", ts)
	}
}

func TestReadSortedHandlesOutOfOrderDelivery(t *testing.T) {
	s := New(1, 4, 1)
	// Deliver out of timestamp order (distributed streams do this, §3.6).
	s.Deliver(0, []float32{30}, 30)
	s.Deliver(0, []float32{10}, 10)
	s.Deliver(0, []float32{20}, 20)
	buf := make([]float32, 4)
	ts := make([]float64, 4)
	n := s.ReadSorted(0, buf, ts)
	if n != 3 {
		t.Fatalf("count=%d", n)
	}
	for i, want := range []float32{10, 20, 30} {
		if buf[i] != want {
			t.Fatalf("sorted readout: %v", buf[:3])
		}
		if ts[i] != float64(want) {
			t.Fatalf("sorted timestamps: %v", ts[:3])
		}
	}
}

func TestReadSortedBufferPanic(t *testing.T) {
	s := New(1, 2, 2)
	s.Deliver(0, mail(1, 2), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.ReadSorted(0, make([]float32, 1), make([]float64, 2))
}

// TestRestoreUndoesGrow: a store grown since its snapshot shrinks back on
// restoring a clone taken before, node count included, and its mail rolls
// back.
func TestRestoreUndoesGrow(t *testing.T) {
	const slots, dim = 2, 2
	s := New(6, slots, dim)
	s.Deliver(3, []float32{1, 2}, 5)
	snap := s.Clone()

	s.Deliver(3, []float32{9, 9}, 7)
	s.Grow(20)
	s.Deliver(19, []float32{8, 8}, 8)

	*s = *snap.Clone()
	if s.NumNodes() != 6 {
		t.Fatalf("restore kept grown node space: %d", s.NumNodes())
	}
	buf := make([]float32, slots*dim)
	ts := make([]float64, slots)
	if c := s.ReadSorted(3, buf, ts); c != 1 || buf[0] != 1 || ts[0] != 5 {
		t.Fatalf("restore did not roll back: count %d buf %v ts %v", c, buf, ts)
	}
}

func TestResetAndSnapshotRestore(t *testing.T) {
	s := New(2, 2, 1)
	s.Deliver(0, []float32{7}, 1)
	snap := s.Clone()
	s.Deliver(0, []float32{8}, 2)
	s.Deliver(1, []float32{9}, 3)
	*s = *snap.Clone()
	if s.Len(0) != 1 || s.Len(1) != 0 {
		t.Fatalf("restore lens: %d %d", s.Len(0), s.Len(1))
	}
	buf := make([]float32, 2)
	ts := make([]float64, 2)
	s.ReadSorted(0, buf, ts)
	if buf[0] != 7 {
		t.Fatalf("restored mail: %v", buf)
	}
	s.Reset()
	if s.Len(0) != 0 {
		t.Fatal("reset failed")
	}
}

func TestKeyValueUpdateKeepsCapacity(t *testing.T) {
	s := New(1, 2, 3)
	s.SetRule(UpdateKeyValue)
	s.Deliver(0, []float32{1, 0, 0}, 1)
	s.Deliver(0, []float32{0, 1, 0}, 2)
	// Mailbox full: KV blending kicks in, count stays at slots.
	s.Deliver(0, []float32{10, 0, 0}, 3)
	if s.Len(0) != 2 {
		t.Fatalf("KV mailbox len=%d", s.Len(0))
	}
	buf := make([]float32, 6)
	ts := make([]float64, 2)
	n := s.ReadSorted(0, buf, ts)
	if n != 2 {
		t.Fatalf("count=%d", n)
	}
	// The new mail must have been blended in: some slot moved toward (10,0,0).
	if buf[0] == 1 && buf[3] == 0 {
		t.Fatalf("KV update did not blend: %v", buf)
	}
	// The most-attended slot carries the new timestamp.
	if ts[n-1] != 3 {
		t.Fatalf("KV timestamps: %v", ts)
	}
}

// Property: after any delivery sequence, count ≤ slots, readout is sorted by
// timestamp, and the mails present are exactly the `count` most recent
// deliveries under FIFO.
func TestFIFOProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		slots := 1 + rng.Intn(5)
		s := New(1, slots, 1)
		var delivered []float64
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			ts := float64(i + 1)
			s.Deliver(0, []float32{float32(ts)}, ts)
			delivered = append(delivered, ts)
		}
		c := s.Len(0)
		if c > slots {
			return false
		}
		want := len(delivered)
		if want > slots {
			want = slots
		}
		if c != want {
			return false
		}
		buf := make([]float32, slots)
		ts := make([]float64, slots)
		got := s.ReadSorted(0, buf, ts)
		if got != c {
			return false
		}
		// Must be the last `c` deliveries in ascending order.
		for i := 0; i < c; i++ {
			if float64(buf[i]) != delivered[len(delivered)-c+i] {
				return false
			}
			if i > 0 && ts[i] < ts[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGrowPreservesMail checks dynamic admission: growing keeps every
// delivered mail readable and makes the new IDs deliverable.
func TestGrowPreservesMail(t *testing.T) {
	const slots, dim = 3, 2
	s := New(5, slots, dim)
	for n := int32(0); n < 5; n++ {
		s.Deliver(n, []float32{float32(n), 1}, float64(n))
	}
	s.Grow(40)
	if s.NumNodes() != 40 {
		t.Fatalf("NumNodes after grow: %d", s.NumNodes())
	}
	s.Grow(10) // shrink attempts are no-ops
	if s.NumNodes() != 40 {
		t.Fatalf("Grow shrank: %d", s.NumNodes())
	}
	buf := make([]float32, slots*dim)
	ts := make([]float64, slots)
	for n := int32(0); n < 5; n++ {
		if c := s.ReadSorted(n, buf, ts); c != 1 || buf[0] != float32(n) {
			t.Fatalf("node %d lost mail after grow: count %d buf %v", n, c, buf)
		}
	}
	if s.Len(39) != 0 {
		t.Fatal("new node not empty")
	}
	s.Deliver(39, []float32{9, 9}, 1)
	if s.Len(39) != 1 {
		t.Fatal("delivery to admitted node failed")
	}
}

// TestSetMailsEqualsDeliveriesQuick: SetMails(n, ReadSorted(n)) into an
// empty store — what a checkpoint load does per node — leaves exactly the
// store that delivering those mails one by one leaves, under both ψ: the
// same readout now and after any further deliveries (so count, slot order
// and ring head agree, not just the visible mails). The source readout
// comes from a clone, which must read as the live store does.
func TestSetMailsEqualsDeliveriesQuick(t *testing.T) {
	const nodes, slots, dim = 11, 4, 3
	for _, rule := range []UpdateRule{UpdateFIFO, UpdateKeyValue} {
		prop := func(seed int64, opCount uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			src := New(nodes, slots, dim)
			src.SetRule(rule)
			mail := make([]float32, dim)
			deliver := func(s *Store, node int32, ts float64) {
				for j := range mail {
					mail[j] = float32(ts) + float32(j)
				}
				s.Deliver(node, mail, ts)
			}
			for i := int(opCount % 64); i > 0; i-- {
				deliver(src, int32(rng.Intn(nodes)), rng.Float64()*100)
			}

			snap := src.Clone()
			bulk, one := New(nodes, slots, dim), New(nodes, slots, dim)
			bulk.SetRule(rule)
			one.SetRule(rule)
			buf, ts := make([]float32, slots*dim), make([]float64, slots)
			lbuf, lts := make([]float32, slots*dim), make([]float64, slots)
			for n := int32(0); n < nodes; n++ {
				c := snap.ReadSorted(n, buf, ts)
				if lc := src.ReadSorted(n, lbuf, lts); lc != c || !equalReadout(buf, ts, lbuf, lts, c, dim) {
					return false
				}
				bulk.SetMails(n, buf[:c*dim], ts[:c])
				for i := 0; i < c; i++ {
					one.Deliver(n, buf[i*dim:(i+1)*dim], ts[i])
				}
			}
			for round := 0; round < 2; round++ {
				for n := int32(0); n < nodes; n++ {
					c := bulk.ReadSorted(n, buf, ts)
					if lc := one.ReadSorted(n, lbuf, lts); lc != c || !equalReadout(buf, ts, lbuf, lts, c, dim) {
						return false
					}
				}
				for i := 0; i < 3*slots; i++ { // overflow some mailboxes: the ring heads must agree too
					node, at := int32(rng.Intn(nodes)), rng.Float64()*100
					deliver(bulk, node, at)
					deliver(one, node, at)
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("rule %d: %v", rule, err)
		}
	}
	// SetMails over a mailbox that already has mail replaces it; with no
	// mails it empties the mailbox and hands the block back.
	s := New(2, 2, 1)
	s.Deliver(0, []float32{1}, 1)
	s.Deliver(0, []float32{2}, 2)
	s.Deliver(0, []float32{3}, 3) // head is now 1
	s.SetMails(0, []float32{7}, []float64{9})
	buf, ts := make([]float32, 2), make([]float64, 2)
	if c := s.ReadSorted(0, buf, ts); c != 1 || buf[0] != 7 || ts[0] != 9 {
		t.Fatalf("SetMails over a full mailbox: %d mails, %v at %v", c, buf[:c], ts[:c])
	}
	s.Deliver(0, []float32{8}, 10)
	s.Deliver(0, []float32{9}, 11) // must evict slot 0 (the 7), as after a fresh fill
	if c := s.ReadSorted(0, buf, ts); c != 2 || buf[0] != 8 || buf[1] != 9 {
		t.Fatalf("ring head after SetMails: %v", buf[:c])
	}
	s.SetMails(0, nil, nil)
	if o := s.Occupancy(); s.Len(0) != 0 || o.LiveBlocks != 0 || o.FreeBlocks != 1 {
		t.Fatalf("SetMails of nothing: %d mails, %+v", s.Len(0), o)
	}
}

func equalReadout(a []float32, at []float64, b []float32, bt []float64, c, dim int) bool {
	for i := 0; i < c; i++ {
		if at[i] != bt[i] {
			return false
		}
	}
	for i := 0; i < c*dim; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
