package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"apan/internal/nn"
	"apan/internal/tensor"
	"apan/internal/tgraph"
)

// Checkpointing lets a trained and warmed model survive restarts: the
// parameters plus the full streaming state (node embeddings, mailboxes and
// the temporal graph) in one versioned blob, so a replica resumes exactly
// where the previous one stopped. Layout, version 1, little endian
// (docs/durability.md has the long form):
//
//	"APCK" | version u32 | parameters (nn's APNN blob) | numNodes u32 | dim u32 |
//	numNodes × ( z dim·f32 | lastTime f64 | touched u8 ) |
//	numNodes × ( count u32 | count × ( time f64 | mail dim·f32 ), oldest first ) |
//	numEvents u64 | numEvents × ( src i32 | dst i32 | time f64 | label i8 | featLen u32 | feat featLen·f32 )
//
// Reading is two steps, as for a WAL record: checkCheckpoint holds every
// count and length against the bytes present without touching the model, and
// applyCheckpoint, which cannot fail, decodes each section into its store.
const (
	ckptMagic   = "APCK"
	ckptVersion = 1
	// ckptMaxGrowBytes bounds the store memory (state + mailbox slots) a
	// checkpoint's node count may grow a smaller model by. The bytes present
	// already bound the count; this caps a large but well-formed file.
	ckptMaxGrowBytes = 4 << 30
	// ckptMaxFeatLen bounds one event's feature count, as the WAL codec does.
	ckptMaxFeatLen = 1 << 20
	ckptNodeBytes  = 9  // lastTime | touched, after a node's z row
	ckptMailBytes  = 8  // time, before a mail's row
	ckptEventBytes = 21 // src | dst | time | label | featLen, before the features
	// ckptSpillBytes of encoded checkpoint are held before a write;
	// ckptArenaFloats feature values share one arena of a loaded graph.
	ckptSpillBytes  = 256 << 10
	ckptArenaFloats = 64 << 10
)

var le = binary.LittleEndian

// SaveCheckpoint writes parameters and streaming state.
func (m *Model) SaveCheckpoint(w io.Writer) error {
	if _, err := m.saveCheckpoint(w); err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	return nil
}

// saveCheckpoint is SaveCheckpoint returning the cut's watermark — the
// number of graph events captured, which is also the WAL index replay
// resumes from after loading this checkpoint — and w's error as it came.
func (m *Model) saveCheckpoint(w io.Writer) (uint64, error) {
	// One buffer for every section, written out whenever it holds min bytes,
	// so a save's memory does not grow with the model. A write error sticks.
	buf := make([]byte, 0, 2*ckptSpillBytes)
	var werr error
	spill := func(min int) {
		if len(buf) >= min {
			if werr == nil {
				_, werr = w.Write(buf)
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, ckptMagic...)
	buf = le.AppendUint32(buf, ckptVersion)
	buf = m.CurrentParams().AppendTo(buf)
	// Capture the shared durability cut (see cut.go) — store clones plus a
	// zero-copy event-log prefix on one batch boundary; only the appliers
	// pause, for the clone — then encode straight from the snapshots.
	stSnap, mbSnap, events, numNodes := m.checkpointCut()
	dim, slots := m.Cfg.EdgeDim, m.Cfg.Slots
	buf = le.AppendUint32(buf, uint32(numNodes))
	buf = le.AppendUint32(buf, uint32(dim))
	for n := int32(0); n < int32(numNodes); n++ {
		z, lastTime, touched := stSnap.Row(n)
		buf = tensor.AppendLE(buf, z)
		buf = le.AppendUint64(buf, math.Float64bits(lastTime))
		if buf = append(buf, 0); touched {
			buf[len(buf)-1] = 1
		}
		spill(ckptSpillBytes)
	}
	mails, ts := make([]float32, slots*dim), make([]float64, slots)
	for n := int32(0); n < int32(numNodes); n++ {
		c := mbSnap.ReadSorted(n, mails, ts)
		buf = le.AppendUint32(buf, uint32(c))
		for i := 0; i < c; i++ {
			buf = le.AppendUint64(buf, math.Float64bits(ts[i]))
			buf = tensor.AppendLE(buf, mails[i*dim:(i+1)*dim])
		}
		spill(ckptSpillBytes)
	}
	// Temporal graph: event log in arrival order, from the captured prefix.
	buf = le.AppendUint64(buf, uint64(len(events)))
	for i := range events {
		ev := &events[i]
		buf = le.AppendUint32(buf, uint32(ev.Src))
		buf = le.AppendUint32(buf, uint32(ev.Dst))
		buf = le.AppendUint64(buf, math.Float64bits(ev.Time))
		buf = append(buf, byte(ev.Label))
		buf = le.AppendUint32(buf, uint32(len(ev.Feat)))
		buf = tensor.AppendLE(buf, ev.Feat)
		spill(ckptSpillBytes)
	}
	spill(0)
	return uint64(len(events)), werr
}

// ckptCursor walks a checkpoint's bytes. A read past the end yields zero
// and sets short, which sticks: checkCheckpoint reads a section through and
// asks once; applyCheckpoint walks bytes already checked.
type ckptCursor struct {
	b     []byte
	o     int
	short bool
}

func (c *ckptCursor) take(n int) []byte {
	if n > len(c.b)-c.o {
		c.short, c.o = true, len(c.b)
		return nil
	}
	c.o += n
	return c.b[c.o-n : c.o]
}

func (c *ckptCursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return le.Uint32(p)
	}
	return 0
}

func (c *ckptCursor) u64() uint64 {
	if p := c.take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

func (c *ckptCursor) f64() float64 { return math.Float64frombits(c.u64()) }

// ckptShape is what checkCheckpoint learned of a file it accepted.
type ckptShape struct {
	numNodes  int
	stateOff  int // offset of node 0's z row
	numEvents int
	feats     int // feature values over all events
}

// checkCheckpoint validates b without allocating or touching the model: no
// count in the file can claim more nodes, mails, events or feature values
// than the bytes after it could encode. Requires the store latch.
func (m *Model) checkCheckpoint(b []byte) (s ckptShape, err error) {
	short := func(section string) (ckptShape, error) {
		return s, fmt.Errorf("core: load checkpoint %s: %w", section, io.ErrUnexpectedEOF)
	}
	c := ckptCursor{b: b}
	if magic := c.take(4); magic != nil && string(magic) != ckptMagic {
		return s, fmt.Errorf("core: load checkpoint: bad magic %q", magic)
	}
	if version := c.u32(); c.short {
		return short("header")
	} else if version != ckptVersion {
		return s, fmt.Errorf("core: load checkpoint: unsupported version %d", version)
	}
	n, err := nn.CheckParams(b[c.o:], m.Params())
	if err != nil {
		return s, err
	}
	c.take(n)
	numNodes, dim := int64(c.u32()), int64(c.u32())
	if c.short {
		return short("state")
	}
	if dim != int64(m.Cfg.EdgeDim) {
		return s, fmt.Errorf("core: load checkpoint: dim %d, model %d", dim, m.Cfg.EdgeDim)
	}
	// A node costs its state row and at least a mail count; then 8 bytes.
	rowBytes := 4*int(dim) + ckptNodeBytes
	if left := int64(len(b) - c.o); numNodes*int64(rowBytes+4)+8 > left {
		return s, fmt.Errorf("core: load checkpoint: node count %d needs more than the %d bytes left", numNodes, left)
	}
	if grow := uint64(numNodes) * uint64(m.Cfg.Slots+1) * uint64(dim) * 4; numNodes > int64(m.Cfg.NumNodes) && grow > ckptMaxGrowBytes {
		return s, fmt.Errorf("core: load checkpoint: node count %d would allocate %d store bytes (max %d)",
			numNodes, grow, uint64(ckptMaxGrowBytes))
	}
	s.numNodes, s.stateOff = int(numNodes), c.o
	c.take(s.numNodes * rowBytes)
	for n := 0; n < s.numNodes; n++ {
		count := int(c.u32())
		if count > m.Cfg.Slots {
			return s, fmt.Errorf("core: load checkpoint mailbox: node %d has %d mails, max %d", n, count, m.Cfg.Slots)
		}
		c.take(count * (ckptMailBytes + 4*int(dim)))
	}
	if c.short {
		return short("mailbox")
	}

	numEvents := c.u64()
	if left := uint64(len(b) - c.o); c.short || numEvents > left/ckptEventBytes {
		return s, fmt.Errorf("core: load checkpoint graph: event count %d needs more than the %d bytes left", numEvents, left)
	}
	s.numEvents = int(numEvents)
	// AddEvent panics outside the node space the graph is rebuilt over.
	space := uint32(max(s.numNodes, m.Cfg.NumNodes))
	for i := 0; i < s.numEvents; i++ {
		src, dst := c.u32(), c.u32()
		c.take(9) // time | label
		featLen := c.u32()
		if src >= space || dst >= space {
			return s, fmt.Errorf("core: load checkpoint graph: event %d joins nodes %d and %d, outside [0,%d)", i, int32(src), int32(dst), space)
		}
		if featLen > ckptMaxFeatLen {
			return s, fmt.Errorf("core: load checkpoint graph: absurd feature length %d", featLen)
		}
		s.feats += int(featLen)
		c.take(4 * int(featLen))
	}
	if c.short {
		return short("graph")
	}
	if c.o != len(b) {
		return s, fmt.Errorf("core: load checkpoint: %d trailing bytes", len(b)-c.o)
	}
	return s, nil
}

// applyCheckpoint replaces the model's parameters and streaming state with
// what b holds, b having passed checkCheckpoint as s under the same hold of
// the store latch. Nothing here can fail. Parameters go into the model's
// own copy and are published last, never beside half-loaded stores.
func (m *Model) applyCheckpoint(b []byte, s ckptShape) {
	// Grow to a checkpoint written after dynamic node admission, so every
	// admitted node comes back; nodes beyond a smaller one stay cold.
	m.ensureNodesLocked(s.numNodes)
	m.st.Reset()
	m.mbox.Reset()
	// Evictor tracking is not checkpointed: loaded warm nodes rejoin the LRU
	// as the stream touches them.
	m.resetEvictor()
	dim, slots := m.Cfg.EdgeDim, m.Cfg.Slots
	rows, ts := make([]float32, slots*dim), make([]float64, slots)
	c := ckptCursor{b: b, o: s.stateOff}
	for n := int32(0); n < int32(s.numNodes); n++ {
		z, lastTime, touched := c.take(4*dim), c.f64(), c.take(1)[0]
		if touched == 1 {
			tensor.DecodeLE(rows[:dim], z)
			m.st.Set(n, rows[:dim], lastTime)
		}
	}
	// A node's mails go in as one block, in slot order, under one lock.
	for n := int32(0); n < int32(s.numNodes); n++ {
		count := int(c.u32())
		for i := 0; i < count; i++ {
			ts[i] = c.f64()
			tensor.DecodeLE(rows[i*dim:(i+1)*dim], c.take(4*dim))
		}
		if count > 0 {
			m.mbox.SetMails(n, rows[:count*dim], ts[:count])
		}
	}

	// Rebuild the graph in place, so the configured backend survives the
	// load. Features are cut from shared arenas, not allocated per event.
	g := m.db.G
	g.Reset(m.Cfg.NumNodes)
	c.take(8) // numEvents
	var arena []float32
	for feats, i := s.feats, 0; i < s.numEvents; i++ {
		ev := tgraph.Event{Src: tgraph.NodeID(c.u32()), Dst: tgraph.NodeID(c.u32()), Time: c.f64(), Label: int8(c.take(1)[0])}
		n := int(c.u32())
		if n > len(arena) {
			arena = make([]float32, max(n, min(feats, ckptArenaFloats)))
		}
		ev.Feat, arena = arena[:n:n], arena[n:] // capped: an append cannot reach the next event's
		tensor.DecodeLE(ev.Feat, c.take(4*n))
		feats -= n
		g.AddEvent(ev)
	}
	nn.DecodeParams(b[8:], m.Params()) // after magic | version
	m.publishOwn()
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint into a
// model of the same architecture; a checkpoint grown by dynamic node
// admission grows the loading model to match. All or nothing: on an error
// the model — parameters, stores, graph, evictor — is exactly as it was.
func (m *Model) LoadCheckpoint(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: load checkpoint: %w", err)
	}
	return m.loadCheckpoint(b)
}

func (m *Model) loadCheckpoint(b []byte) error {
	m.storeMu.Lock()
	defer m.storeMu.Unlock()
	s, err := m.checkCheckpoint(b)
	if err == nil {
		m.applyCheckpoint(b, s)
	}
	return err
}

// SaveCheckpointFile writes a checkpoint to path atomically (temp + rename).
func (m *Model) SaveCheckpointFile(path string) error {
	_, err := m.Checkpoint(path)
	return err
}

// Checkpoint writes a checkpoint to path atomically (temp + fsync + rename)
// and returns the cut's watermark: the number of graph events captured.
// The file is durable before the rename makes it visible, so a crash never
// leaves a valid-looking checkpoint missing its tail. The caller can hand
// the watermark to wal.Log.TruncateBefore: the checkpoint covers all below.
func (m *Model) Checkpoint(path string) (uint64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	watermark, err := m.saveCheckpoint(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("core: checkpoint to %s: %w", path, err)
	}
	return watermark, nil
}

// LoadCheckpointFile is LoadCheckpoint over path's bytes, one sized read.
func (m *Model) LoadCheckpointFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return m.loadCheckpoint(b)
}
