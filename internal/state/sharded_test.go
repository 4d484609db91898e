package state

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestShardedMatchesFlatQuick: for ANY sequence of Set operations, a Sharded
// store and a flat Store must agree on every node's embedding, last-update
// time and touched flag.
func TestShardedMatchesFlatQuick(t *testing.T) {
	const nodes, dim = 29, 5
	prop := func(seed int64, opCount uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		flat := New(nodes, dim)
		sharded := NewSharded(nodes, dim, 8)

		n := int(opCount%512) + 1
		z := make([]float32, dim)
		for i := 0; i < n; i++ {
			node := int32(rng.Intn(nodes))
			for j := range z {
				z[j] = rng.Float32()
			}
			ts := rng.Float64() * 100
			flat.Set(node, z, ts)
			sharded.Set(node, z, ts)
		}

		got := make([]float32, dim)
		for node := int32(0); node < nodes; node++ {
			if flat.Touched(node) != sharded.Touched(node) ||
				flat.LastTime(node) != sharded.LastTime(node) {
				return false
			}
			sharded.CopyTo(node, got)
			want := flat.Get(node)
			for j := range got {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestShardedGrowPreservesState checks dynamic admission semantics.
func TestShardedGrowPreservesState(t *testing.T) {
	const dim = 3
	s := NewSharded(4, dim, 2)
	s.Set(2, []float32{1, 2, 3}, 7)
	s.Grow(33)
	if s.NumNodes() != 33 {
		t.Fatalf("NumNodes after grow: %d", s.NumNodes())
	}
	z := make([]float32, dim)
	s.CopyTo(2, z)
	if z[0] != 1 || z[2] != 3 || s.LastTime(2) != 7 || !s.Touched(2) {
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

// TestShardedConcurrentStress hammers one store from concurrent writers,
// readers and a grower; run under -race. Whole-row writes must never tear:
// every row is constant-valued, so a copy-out read must come back constant.
func TestShardedConcurrentStress(t *testing.T) {
	const (
		nodes   = 64
		dim     = 16
		writers = 4
		readers = 4
		opsEach = 3000
	)
	s := NewSharded(nodes, dim, 8)
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			z := make([]float32, dim)
			for i := 0; i < opsEach; i++ {
				n := int32(rng.Intn(nodes))
				v := rng.Float32()
				for j := range z {
					z[j] = v
				}
				s.Set(n, z, rng.Float64())
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			z := make([]float32, dim)
			for i := 0; i < opsEach; i++ {
				n := int32(rng.Intn(nodes))
				s.CopyTo(n, z)
				for j := 1; j < dim; j++ {
					if z[j] != z[0] {
						t.Errorf("torn read on node %d: %v vs %v", n, z[j], z[0])
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := nodes; n <= nodes+32; n += 8 {
			s.Grow(n)
		}
	}()
	wg.Wait()
}

// TestShardedSnapshotRestoreRoundTrip includes a grow between snapshot and
// restore: restore must roll the node space back too.
func TestShardedSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewSharded(6, 2, 4)
	s.Set(5, []float32{1, 2}, 3)
	snap := s.Snapshot()

	s.Set(5, []float32{9, 9}, 4)
	s.Grow(50)
	s.Set(49, []float32{7, 7}, 5)

	s.Restore(snap)
	if s.NumNodes() != 6 {
		t.Fatalf("restore kept grown node space: %d", s.NumNodes())
	}
	z := make([]float32, 2)
	s.CopyTo(5, z)
	if z[0] != 1 || z[1] != 2 || s.LastTime(5) != 3 {
		t.Fatalf("restore did not roll back: %v t=%v", z, s.LastTime(5))
	}
}

// TestSnapshotRowReadsCapturedState: a snapshot answers per node what the
// store answered when it was taken — checkpoints are encoded from it — for
// every shard count, cleared and never-touched nodes included, and keeps
// answering it after the store moves on.
func TestSnapshotRowReadsCapturedState(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		s := NewSharded(21, 3, shards)
		for n := int32(0); n < 21; n += 2 {
			s.Set(n, []float32{float32(n), 1, -float32(n)}, float64(n)+0.5)
		}
		s.ClearNode(4)
		snap := s.SnapshotShared()
		s.Set(3, []float32{9, 9, 9}, 99)
		s.Set(6, []float32{9, 9, 9}, 99)
		for n := int32(0); n < 21; n++ {
			z, last, touched := snap.Row(n)
			want := n%2 == 0 && n != 4
			if touched != want || (want && (z[0] != float32(n) || z[2] != -float32(n) || last != float64(n)+0.5)) ||
				(!want && (z[0] != 0 || z[1] != 0 || last != 0)) {
				t.Fatalf("%d shards, node %d: row %v t=%v touched=%v", shards, n, z, last, touched)
			}
		}
	}
}

// TestShardPaddedToCacheLine: one shard fills one 64-byte cache line, so
// two shards' locks never share a line (false sharing between scorers'
// reads and the applier's writes on neighbouring shards).
func TestShardPaddedToCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(stateShard{}); got != 64 {
		t.Fatalf("stateShard is %d bytes, want 64", got)
	}
}

func floatsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
