package mailbox

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestShardedMatchesFlatQuick is the equivalence property behind the whole
// sharding refactor: for ANY sequence of out-of-order deliveries, a Sharded
// store and a flat Store must agree on every node's readout — same counts,
// same timestamp-sorted order, same mail contents — under both update
// rules. testing/quick drives the sequence from a random seed.
func TestShardedMatchesFlatQuick(t *testing.T) {
	const nodes, slots, dim = 37, 4, 3
	for _, rule := range []UpdateRule{UpdateFIFO, UpdateKeyValue} {
		prop := func(seed int64, opCount uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			flat := New(nodes, slots, dim)
			flat.SetRule(rule)
			sharded := NewSharded(nodes, slots, dim, 8)
			sharded.SetRule(rule)

			n := int(opCount%512) + 1
			mail := make([]float32, dim)
			for i := 0; i < n; i++ {
				node := int32(rng.Intn(nodes))
				// Timestamps drawn independently of op index: arrival order
				// and time order are decorrelated, the §3.6 condition.
				ts := rng.Float64() * 100
				for j := range mail {
					mail[j] = rng.Float32()
				}
				flat.Deliver(node, mail, ts)
				sharded.Deliver(node, mail, ts)
			}

			fbuf := make([]float32, slots*dim)
			fts := make([]float64, slots)
			sbuf := make([]float32, slots*dim)
			sts := make([]float64, slots)
			for node := int32(0); node < nodes; node++ {
				if flat.Len(node) != sharded.Len(node) {
					return false
				}
				fc := flat.ReadSorted(node, fbuf, fts)
				sc := sharded.ReadSorted(node, sbuf, sts)
				if fc != sc {
					return false
				}
				for i := 0; i < fc; i++ {
					if fts[i] != sts[i] {
						return false
					}
					if i > 0 && sts[i] < sts[i-1] {
						return false // readout must be time-sorted
					}
				}
				for i := 0; i < fc*dim; i++ {
					if fbuf[i] != sbuf[i] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("rule %v: %v", rule, err)
		}
	}
}

// TestShardedGrowPreservesMail checks dynamic admission: growing keeps every
// delivered mail readable and makes the new IDs deliverable.
func TestShardedGrowPreservesMail(t *testing.T) {
	const slots, dim = 3, 2
	s := NewSharded(5, slots, dim, 4)
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

// TestShardedConcurrentStress hammers one store from concurrent deliverers,
// readers, growers and snapshotters. Run under -race (CI does); the
// assertions are invariants every interleaving must keep.
func TestShardedConcurrentStress(t *testing.T) {
	const (
		nodes   = 64
		slots   = 4
		dim     = 8
		writers = 4
		readers = 4
		opsEach = 2000
	)
	s := NewSharded(nodes, slots, dim, 8)
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mail := make([]float32, dim)
			for i := 0; i < opsEach; i++ {
				n := int32(rng.Intn(nodes))
				mail[0] = float32(n)
				s.Deliver(n, mail, rng.Float64())
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			buf := make([]float32, slots*dim)
			ts := make([]float64, slots)
			for i := 0; i < opsEach; i++ {
				n := int32(rng.Intn(nodes))
				c := s.ReadSorted(n, buf, ts)
				if c < 0 || c > slots {
					t.Errorf("count %d out of range", c)
					return
				}
				for j := 1; j < c; j++ {
					if ts[j] < ts[j-1] {
						t.Error("unsorted readout under concurrency")
						return
					}
				}
				// Copy-out reads must never tear: slot 0 of node n always
				// holds n in its first component.
				if c > 0 && buf[0] != float32(n) {
					t.Errorf("torn read: node %d saw %v", n, buf[0])
					return
				}
			}
		}(r)
	}
	wg.Add(2)
	go func() { // grower: admission during traffic (existing IDs only read)
		defer wg.Done()
		for n := nodes; n <= nodes+32; n += 8 {
			s.Grow(n)
		}
	}()
	go func() { // snapshotter: consistent cuts during traffic
		defer wg.Done()
		for i := 0; i < 10; i++ {
			snap := s.Snapshot()
			if snap.numNodes < nodes {
				t.Error("snapshot lost nodes")
				return
			}
		}
	}()
	wg.Wait()

	total := 0
	for n := int32(0); n < int32(s.NumNodes()); n++ {
		total += s.Len(n)
	}
	if total == 0 {
		t.Fatal("no mail survived the stress run")
	}
}

// TestShardedSnapshotRestoreRoundTrip includes a grow between snapshot and
// restore: restore must roll the node space back too.
func TestShardedSnapshotRestoreRoundTrip(t *testing.T) {
	const slots, dim = 2, 2
	s := NewSharded(6, slots, dim, 4)
	s.Deliver(3, []float32{1, 2}, 5)
	snap := s.Snapshot()

	s.Deliver(3, []float32{9, 9}, 7)
	s.Grow(20)
	s.Deliver(19, []float32{8, 8}, 8)

	s.Restore(snap)
	if s.NumNodes() != 6 {
		t.Fatalf("restore kept grown node space: %d", s.NumNodes())
	}
	buf := make([]float32, slots*dim)
	ts := make([]float64, slots)
	if c := s.ReadSorted(3, buf, ts); c != 1 || buf[0] != 1 || ts[0] != 5 {
		t.Fatalf("restore did not roll back: count %d buf %v ts %v", c, buf, ts)
	}
}

// TestMailSnapshotSharedSinceAliasesCleanShards mirrors the state-store
// aliasing test: untouched shards are reused by pointer across snapshots,
// and bulk mutators (Reset, Restore, Grow, SetRule) dirty every shard.
func TestMailSnapshotSharedSinceAliasesCleanShards(t *testing.T) {
	const nodes, slots, dim, shards = 64, 3, 4, 8
	s := NewSharded(nodes, slots, dim, shards)
	for n := int32(0); n < nodes; n++ {
		s.Deliver(n, []float32{float32(n), 0, 0, 0}, float64(n))
	}

	base, cloned := s.SnapshotSharedSince(nil)
	if cloned != shards {
		t.Fatalf("nil base must full-copy: cloned %d of %d", cloned, shards)
	}

	s.Deliver(0, []float32{9, 9, 9, 9}, 99) // dirties shard 0 only
	next, cloned := s.SnapshotSharedSince(base)
	if cloned != 1 {
		t.Fatalf("expected 1 dirty shard cloned, got %d", cloned)
	}
	aliased := 0
	for i := range next.shards {
		if next.shards[i] == base.shards[i] {
			aliased++
		}
	}
	if aliased != shards-1 {
		t.Fatalf("expected %d aliased shards, got %d", shards-1, aliased)
	}

	// Restoring the aliased snapshot reproduces the live mailbox contents.
	r := NewSharded(nodes, slots, dim, shards)
	r.Restore(next)
	bufA, bufB := make([]float32, slots*dim), make([]float32, slots*dim)
	tsA, tsB := make([]float64, slots), make([]float64, slots)
	for n := int32(0); n < nodes; n++ {
		ka, kb := s.ReadSorted(n, bufA, tsA), r.ReadSorted(n, bufB, tsB)
		if ka != kb {
			t.Fatalf("node %d mail count %d vs %d", n, ka, kb)
		}
		for i := 0; i < ka*dim; i++ {
			if bufA[i] != bufB[i] {
				t.Fatalf("node %d mail payload diverged", n)
			}
		}
	}

	s.Reset()
	if _, cloned := s.SnapshotSharedSince(next); cloned != shards {
		t.Fatalf("after Reset expected %d clones, got %d", shards, cloned)
	}
	base, _ = s.SnapshotSharedSince(nil)
	s.SetRule(UpdateKeyValue)
	if _, cloned := s.SnapshotSharedSince(base); cloned != shards {
		t.Fatalf("after SetRule expected %d clones, got %d", shards, cloned)
	}
	base, _ = s.SnapshotSharedSince(nil)
	s.Grow(nodes * 2)
	if _, cloned := s.SnapshotSharedSince(base); cloned != shards {
		t.Fatalf("after Grow expected %d clones, got %d", shards, cloned)
	}
}

// TestSetMailsEqualsDeliveriesQuick: SetMails(n, ReadSorted(n)) into an
// empty store — what a checkpoint load does per node — leaves exactly the
// store that delivering those mails one by one leaves, under both ψ: the
// same readout now and after any further deliveries (so count, slot order
// and ring head agree, not just the visible mails). The source readout
// comes from a snapshot, which must read as the live store does.
func TestSetMailsEqualsDeliveriesQuick(t *testing.T) {
	const nodes, slots, dim = 11, 4, 3
	for _, rule := range []UpdateRule{UpdateFIFO, UpdateKeyValue} {
		prop := func(seed int64, opCount uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			src := NewSharded(nodes, slots, dim, 4)
			src.SetRule(rule)
			mail := make([]float32, dim)
			deliver := func(s *Sharded, node int32, ts float64) {
				for j := range mail {
					mail[j] = float32(ts) + float32(j)
				}
				s.Deliver(node, mail, ts)
			}
			for i := int(opCount % 64); i > 0; i-- {
				deliver(src, int32(rng.Intn(nodes)), rng.Float64()*100)
			}

			snap := src.SnapshotShared()
			bulk, one := NewSharded(nodes, slots, dim, 2), NewSharded(nodes, slots, dim, 2)
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
	s := NewSharded(2, 2, 1, 1)
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
