package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"apan/internal/tgraph"
)

// RuntimeDigest returns an FNV-1a hash over the model's observable streaming
// runtime: the admitted node count, every node's state embedding and last-
// update time, every mailbox's sorted readout (mails + timestamps), and the
// temporal graph's event count. Two models built from the same Config and
// seed that processed bitwise-identical streams produce equal digests — the
// scenario harness's replay-determinism and checkpoint-restore invariants
// compare these instead of diffing gigabytes of state, and a digest mismatch
// narrows a divergence to "runtime state" even when all returned scores
// matched.
//
// The digest covers readout-visible state only: two mailboxes whose FIFO
// ring heads differ but whose sorted readouts agree hash equal, which is
// exactly the §3.6 arrival-order-insensitivity contract the encoder sees.
//
// RuntimeDigest reads the same batch-aligned cut as SnapshotRuntime: it
// holds the writer lock, so only the applier pauses (see applyMu); it is
// safe to call concurrently with serving, yields a consistent cut, and
// never blocks inference. Model parameters are not included (they are
// training state, not streaming state).
func (m *Model) RuntimeDigest() uint64 {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()

	h := fnv.New64a()
	var scratch [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	w32 := func(f float32) {
		binary.LittleEndian.PutUint32(scratch[:4], math.Float32bits(f))
		h.Write(scratch[:4])
	}

	n := m.Cfg.NumNodes
	dim := m.st.Dim()
	slots, mdim := m.st.Slots(), m.st.Dim()
	row := make([]float32, dim)
	mails := make([]float32, slots*mdim)
	times := make([]float64, slots)

	w64(uint64(n))
	for i := 0; i < n; i++ {
		id := tgraph.NodeID(i)
		m.st.CopyTo(id, row)
		for _, f := range row {
			w32(f)
		}
		w64(math.Float64bits(m.st.LastTime(id)))
		c := m.st.ReadSorted(id, mails, times)
		w64(uint64(c))
		for r := 0; r < c; r++ {
			for _, f := range mails[r*mdim : (r+1)*mdim] {
				w32(f)
			}
			w64(math.Float64bits(times[r]))
		}
	}
	w64(uint64(m.db.G.NumEvents()))
	return h.Sum64()
}
