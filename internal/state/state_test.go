package state

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestZeroValueAndValidation(t *testing.T) {
	s := New(3, 4)
	if s.NumNodes() != 3 || s.Dim() != 4 {
		t.Fatalf("shape: %d %d", s.NumNodes(), s.Dim())
	}
	for _, v := range s.Get(1) {
		if v != 0 {
			t.Fatal("fresh state not zero")
		}
	}
	if s.Touched(1) || s.LastTime(1) != 0 {
		t.Fatal("fresh node should be untouched")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 4)
}

func TestSetGetLastTime(t *testing.T) {
	s := New(2, 3)
	s.Set(1, []float32{1, 2, 3}, 42)
	got := s.Get(1)
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("get: %v", got)
	}
	if !s.Touched(1) || s.LastTime(1) != 42 {
		t.Fatalf("metadata: touched=%v t=%v", s.Touched(1), s.LastTime(1))
	}
	if s.Touched(0) {
		t.Fatal("node 0 should be untouched")
	}
}

func TestSetCopiesInput(t *testing.T) {
	s := New(1, 2)
	z := []float32{5, 6}
	s.Set(0, z, 1)
	z[0] = 99
	if s.Get(0)[0] != 5 {
		t.Fatal("Set must copy, not alias")
	}
}

func TestResetAndSnapshotRestore(t *testing.T) {
	s := New(2, 2)
	s.Set(0, []float32{1, 2}, 10)
	snap := s.Clone()
	s.Set(1, []float32{3, 4}, 20)
	s.Set(0, []float32{9, 9}, 30)
	*s = *snap.Clone()
	if s.Get(0)[0] != 1 || s.LastTime(0) != 10 {
		t.Fatalf("restore: %v @%v", s.Get(0), s.LastTime(0))
	}
	if s.Touched(1) {
		t.Fatal("restore leaked later write")
	}
	s.Reset()
	if s.Touched(0) || s.Get(0)[0] != 0 {
		t.Fatal("reset failed")
	}
}

// TestRestoreUndoesGrow: a store grown since its snapshot shrinks back on
// restoring a clone taken before, node count included, as mailbox.Store does.
func TestRestoreUndoesGrow(t *testing.T) {
	s := New(2, 3)
	snap := s.Clone()
	s.Grow(4)
	s.Set(3, []float32{1, 2, 3}, 5)
	*s = *snap.Clone()
	if s.NumNodes() != 2 {
		t.Fatalf("restore kept the grown node space: %d nodes", s.NumNodes())
	}
	s.Grow(4)
	if z := s.Get(3); s.Touched(3) || s.LastTime(3) != 0 || z[0] != 0 || z[2] != 0 {
		t.Fatalf("node admitted after the snapshot survived restore: %v t=%v touched=%v", z, s.LastTime(3), s.Touched(3))
	}
}

// TestRowsFollowTouchedNodes: rows are carved slabRows at a time on first
// Set, come back through ClearNode's free list before a new slab is cut,
// are packed by Clone, and Reset drops them; untouched and
// cleared nodes read as zeros.
func TestRowsFollowTouchedNodes(t *testing.T) {
	const dim = 3
	s := New(10*slabRows, dim)
	if o := s.Occupancy(); o != (Occupancy{}) {
		t.Fatalf("fresh store holds rows: %+v", o)
	}
	for n := int32(0); n <= slabRows; n++ {
		s.Set(n, []float32{float32(n), 1, 2}, 1)
	}
	if o := s.Occupancy(); o.TouchedNodes != slabRows+1 || o.Slabs != 2 || o.Bytes != 2*slabRows*dim*4 {
		t.Fatalf("after %d first touches: %+v", slabRows+1, s.Occupancy())
	}
	s.ClearNode(5)
	s.ClearNode(5)
	if z := s.Get(5); s.Touched(5) || z[0] != 0 || z[1] != 0 {
		t.Fatalf("cleared node reads %v touched=%v", z, s.Touched(5))
	}
	s.Set(9*slabRows, []float32{7, 8, 9}, 2)
	if o := s.Occupancy(); o.TouchedNodes != slabRows+1 || o.FreeRows != 0 || o.Slabs != 2 {
		t.Fatalf("a first touch after ClearNode did not reuse the freed row: %+v", o)
	}
	if z := s.Get(9 * slabRows); z[0] != 7 || z[2] != 9 {
		t.Fatalf("reused row reads %v", z)
	}
	if z := s.Get(4); z[0] != 4 {
		t.Fatalf("neighbouring row disturbed: %v", z)
	}

	// A restored store holds its live rows packed, the last slab cut short;
	// the next first touch starts a new slab and disturbs no row.
	snap := s.Clone()
	*s = *snap.Clone()
	if o := s.Occupancy(); o.TouchedNodes != slabRows+1 || o.FreeRows != 0 || o.Slabs != 2 || o.Bytes != (slabRows+1)*dim*4 {
		t.Fatalf("restored store: %+v", o)
	}
	s.Set(8*slabRows, []float32{5, 5, 5}, 3)
	if o := s.Occupancy(); o.TouchedNodes != slabRows+2 || o.Slabs != 3 {
		t.Fatalf("first touch after restore: %+v", o)
	}
	for n := int32(0); n <= slabRows; n++ {
		if z := s.Get(n); n != 5 && (z[0] != float32(n) || z[1] != 1 || z[2] != 2) {
			t.Fatalf("node %d reads %v after restore and a first touch", n, z)
		}
	}
	if z := s.Get(8 * slabRows); z[0] != 5 || z[2] != 5 {
		t.Fatalf("first touch after restore reads %v", z)
	}

	s.Reset()
	if o := s.Occupancy(); o != (Occupancy{}) || s.Touched(0) || s.Get(0)[0] != 0 {
		t.Fatalf("reset kept rows: %+v", o)
	}
}

// Property: the store returns exactly what was last written per node,
// across ClearNode (the row goes to the free list and is reused) and
// Clone (the live rows are repacked).
func TestLastWriteWinsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3*slabRows)
		s := New(n, 2)
		last := make(map[int32][]float32)
		lastT := make(map[int32]float64)
		for i := 0; i < 300; i++ {
			node := int32(rng.Intn(n))
			switch rng.Intn(10) {
			case 0:
				s.ClearNode(node)
				delete(last, node)
				delete(lastT, node)
			case 1:
				s = s.Clone()
			default:
				z := []float32{rng.Float32(), rng.Float32()}
				ts := rng.Float64()
				s.Set(node, z, ts)
				last[node] = z
				lastT[node] = ts
			}
		}
		for node := int32(0); node < int32(n); node++ {
			z, ok := last[node]
			if !ok {
				z = []float32{0, 0}
			}
			got := s.Get(node)
			if got[0] != z[0] || got[1] != z[1] || s.LastTime(node) != lastT[node] || s.Touched(node) != ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestGrowPreservesState checks dynamic admission: Grow keeps every row
// and admits new nodes cold.
func TestGrowPreservesState(t *testing.T) {
	s := New(4, 3)
	s.Set(2, []float32{1, 2, 3}, 7)
	s.Grow(33)
	if s.NumNodes() != 33 {
		t.Fatalf("NumNodes after grow: %d", s.NumNodes())
	}
	if z := s.Get(2); z[0] != 1 || z[2] != 3 || s.LastTime(2) != 7 || !s.Touched(2) {
		t.Fatalf("grow lost state: %v t=%v", z, s.LastTime(2))
	}
	if s.Touched(32) || s.LastTime(32) != 0 {
		t.Fatal("new node not cold")
	}
	s.Set(32, []float32{4, 5, 6}, 9)
	if !s.Touched(32) {
		t.Fatal("set on admitted node failed")
	}
}

// TestSnapshotRowReadsCapturedState: a clone answers per node what the
// store answered when it was taken — checkpoints are encoded from one —
// cleared and never-touched nodes included, and keeps answering it after
// the store moves on.
func TestSnapshotRowReadsCapturedState(t *testing.T) {
	s := New(21, 3)
	for n := int32(0); n < 21; n += 2 {
		s.Set(n, []float32{float32(n), 1, -float32(n)}, float64(n)+0.5)
	}
	s.ClearNode(4)
	snap := s.Clone()
	s.Set(3, []float32{9, 9, 9}, 99)
	s.Set(6, []float32{9, 9, 9}, 99)
	for n := int32(0); n < 21; n++ {
		z, last, touched := snap.Get(n), snap.LastTime(n), snap.Touched(n)
		want := n%2 == 0 && n != 4
		if touched != want || (want && (z[0] != float32(n) || z[2] != -float32(n) || last != float64(n)+0.5)) ||
			(!want && (z[0] != 0 || z[1] != 0 || last != 0)) {
			t.Fatalf("node %d: row %v t=%v touched=%v", n, z, last, touched)
		}
	}
}

// TestShardedFirstTouchRace: scorers copy nodes out under a shared lock
// while a writer, under the exclusive lock, first-touches them, clears some
// and sets them again, so rows are carved, handed back and reused between
// reads. This is the contract core.Model keeps with its store lock: readers
// run concurrently with each other, never with a writer. Run under -race,
// which catches a read path that writes. A reader sees zeros or one whole
// row written for that very node, never a torn row or another node's. The
// name is kept from the lock-striped store the test was first written for.
func TestShardedFirstTouchRace(t *testing.T) {
	const (
		dim    = 16
		nodes  = 3 * slabRows
		rounds = 60
	)
	s := New(nodes, dim)
	var mu sync.RWMutex
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		z := make([]float32, dim)
		for round := 0; round < rounds; round++ {
			for k := 0; k < nodes; k++ {
				for j := range z {
					z[j] = float32(round*1000 + k + 1)
				}
				mu.Lock()
				s.Set(int32(k), z, float64(round))
				mu.Unlock()
			}
			for k := round % 3; k < nodes; k += 3 {
				mu.Lock()
				s.ClearNode(int32(k))
				mu.Unlock()
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := make([]float32, dim)
			for {
				select {
				case <-done:
					return
				default:
				}
				for k := 0; k < nodes; k++ {
					mu.RLock()
					s.CopyTo(int32(k), z)
					mu.RUnlock()
					v := z[0]
					for j := 1; j < dim; j++ {
						if z[j] != v {
							t.Errorf("torn read of node %d: %v", k, z)
							return
						}
					}
					if v != 0 && int(v)%1000 != k+1 {
						t.Errorf("node %d reads a row written for node %d", k, int(v)%1000-1)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardedSnapshotRestoreRoundTrip includes a grow between snapshot and
// restore: restore must roll the node space back too, and a row overwritten
// since the snapshot must read as captured. The name is kept from the
// lock-striped store the test was first written for.
func TestShardedSnapshotRestoreRoundTrip(t *testing.T) {
	s := New(6, 2)
	s.Set(5, []float32{1, 2}, 3)
	snap := s.Clone()

	s.Set(5, []float32{9, 9}, 4)
	s.Grow(50)
	s.Set(49, []float32{7, 7}, 5)

	*s = *snap.Clone()
	if s.NumNodes() != 6 {
		t.Fatalf("restore kept grown node space: %d", s.NumNodes())
	}
	z := make([]float32, 2)
	s.CopyTo(5, z)
	if z[0] != 1 || z[1] != 2 || s.LastTime(5) != 3 {
		t.Fatalf("restore did not roll back: %v t=%v", z, s.LastTime(5))
	}
}
