package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"apan/internal/nn"
	"apan/internal/tensor"
	"apan/internal/tgraph"
	"apan/internal/wal"
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
// A checkpoint encodes one runtime image (see Snapshot) beside the
// parameters. Reading is one streamed pass (stageCheckpoint): every count
// and length is checked when the reader reaches it, and the data is decoded
// straight into a fresh image and the parameter blob. Only when the last
// byte has checked out is the image installed and the blob decoded, neither
// of which can fail; on an error both are dropped.
const (
	ckptMagic   = "APCK"
	ckptVersion = 1
	// ckptMaxGrowBytes bounds the store memory (state + mailbox slots) a
	// checkpoint's node count may grow a smaller model by. The bytes present
	// or arrived already bound the count; this caps a large but well-formed
	// file.
	ckptMaxGrowBytes = 4 << 30
	// ckptMaxFeatLen bounds one event's feature count, as the WAL codec does.
	ckptMaxFeatLen = 1 << 20
	ckptNodeBytes  = 9  // lastTime | touched, after a node's z row
	ckptMailBytes  = 8  // time, before a mail's row
	ckptEventBytes = 21 // src | dst | time | label | featLen, before the features
	// ckptSpillBytes of encoded checkpoint are held before a write, and at
	// most that many are buffered by a load, which starts at
	// ckptMinReadBytes when the input's length is unknown;
	// ckptArenaFloats feature values share one arena of a loaded graph.
	ckptSpillBytes   = 256 << 10
	ckptMinReadBytes = 4 << 10
	ckptArenaFloats  = 64 << 10
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
	// Encode one runtime image (see SnapshotRuntime): only the applier
	// pauses, for the clone.
	img := m.SnapshotRuntime()
	st, events := img.st, img.events
	numNodes, dim, slots := st.NumNodes(), m.Cfg.EdgeDim, m.Cfg.Slots
	buf = le.AppendUint32(buf, uint32(numNodes))
	buf = le.AppendUint32(buf, uint32(dim))
	for n := int32(0); n < int32(numNodes); n++ {
		buf = tensor.AppendLE(buf, st.Get(n))
		buf = le.AppendUint64(buf, math.Float64bits(st.LastTime(n)))
		if buf = append(buf, 0); st.Touched(n) {
			buf[len(buf)-1] = 1
		}
		spill(ckptSpillBytes)
	}
	mails, ts := make([]float32, slots*dim), make([]float64, slots)
	for n := int32(0); n < int32(numNodes); n++ {
		c := img.mb.ReadSorted(n, mails, ts)
		buf = le.AppendUint32(buf, uint32(c))
		for i := 0; i < c; i++ {
			buf = le.AppendUint64(buf, math.Float64bits(ts[i]))
			buf = tensor.AppendLE(buf, mails[i*dim:(i+1)*dim])
		}
		spill(ckptSpillBytes)
	}
	// Temporal graph: event log in arrival order, from the image.
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

// ckptReader reads a checkpoint once, front to back, through one buffer of
// at most ckptSpillBytes and never more than the file. size is the input's
// length, or -1 for a plain reader; read counts the bytes the input has
// delivered. Staging is sized only by bytes that exist: size less what was
// consumed when the length is known, read when it is not. The first error —
// io.ErrUnexpectedEOF for an input that ends early — sticks: every read
// after it yields zeros and nil, so a section is read through and asked
// once, and loops stop on it.
type ckptReader struct {
	r        io.Reader // nil when buf is the whole input
	buf      []byte
	off, end int // buf[off:end] is delivered but not consumed
	size     int64
	pos      int64 // bytes consumed
	read     int64
	err      error
}

// exist is how many bytes staging may be sized by at this point.
func (c *ckptReader) exist() int64 {
	if c.size >= 0 {
		return c.size - c.pos
	}
	return c.read
}

// fill reads until n bytes are buffered. A reader of unknown length earns a
// larger buffer, up to ckptSpillBytes, by having delivered as many bytes as
// the one it has.
func (c *ckptReader) fill(n int) {
	if c.r == nil {
		c.err = io.ErrUnexpectedEOF
		return
	}
	have := copy(c.buf, c.buf[c.off:c.end])
	c.off, c.end = 0, have
	if c.size < 0 && len(c.buf) < ckptSpillBytes && c.read >= int64(len(c.buf)) {
		c.buf = append(c.buf[:have], make([]byte, min(2*len(c.buf), ckptSpillBytes)-have)...)
	}
	if n > len(c.buf) { // only a known length shorter than n has so small a buffer
		c.err = io.ErrUnexpectedEOF
		return
	}
	k, err := io.ReadAtLeast(c.r, c.buf[have:], n-have)
	c.end, c.read = have+k, c.read+int64(k)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	c.err = err
}

// take consumes the next n bytes, n no more than a header's: a view valid
// until the next read, or nil once the input has failed.
func (c *ckptReader) take(n int) []byte {
	if c.err == nil && c.end-c.off < n {
		c.fill(n)
	}
	if c.err != nil {
		return nil
	}
	c.off += n
	c.pos += int64(n)
	return c.buf[c.off-n : c.off]
}

func (c *ckptReader) u32() uint32 {
	if p := c.take(4); p != nil {
		return le.Uint32(p)
	}
	return 0
}

func (c *ckptReader) u64() uint64 {
	if p := c.take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

func (c *ckptReader) f64() float64 { return math.Float64frombits(c.u64()) }

// floats decodes len(dst) values straight into dst, a buffer's worth at a
// time.
func (c *ckptReader) floats(dst []float32) {
	for len(dst) > 0 && c.err == nil {
		n := min(len(dst), max(len(c.buf)/4, 1))
		if p := c.take(4 * n); p != nil {
			tensor.DecodeLE(dst[:n], p)
		}
		dst = dst[n:]
	}
}

// full copies the next len(dst) bytes into dst, returning how many there
// were; an input that ends first is not an error here.
func (c *ckptReader) full(dst []byte) int {
	k := copy(dst, c.buf[c.off:c.end])
	c.off += k
	if k < len(dst) && c.r != nil {
		n, err := io.ReadFull(c.r, dst[k:])
		if k += n; err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			c.err = err
		}
		c.read += int64(n)
	}
	c.pos += int64(k)
	return k
}

// feat reads n feature values, cut from arena while it lasts. A new arena
// is sized by bytes that exist (see exist); an event claiming more values
// than that gets a slice of its own that grows as its bytes arrive.
func (c *ckptReader) feat(n int, arena []float32) (feat, rest []float32) {
	if n > len(arena) {
		if exist := int(min(c.exist()/4, math.MaxInt32)); n <= exist {
			arena = make([]float32, max(n, min(exist, ckptArenaFloats)))
		} else {
			for len(feat) < n && c.err == nil {
				k := min(n-len(feat), max(len(feat), ckptMinReadBytes/4))
				feat = slices.Grow(feat, k)[:len(feat)+k]
				c.floats(feat[len(feat)-k:])
			}
			return feat, arena
		}
	}
	feat, arena = arena[:n:n], arena[n:] // capped: an append cannot reach the next event's
	c.floats(feat)
	return feat, arena
}

// trailing drains the input past the graph section and counts its bytes.
func (c *ckptReader) trailing() int64 {
	extra := int64(c.end - c.off)
	c.off = c.end
	for c.r != nil && c.err == nil {
		k, err := c.r.Read(c.buf)
		if extra += int64(k); err == io.EOF {
			break
		} else if err != nil {
			c.err = err
		}
	}
	return extra
}

// stageCheckpoint reads one checkpoint through c into a fresh runtime image
// over the node space the load ends with, and the raw parameter blob,
// checking every count and length when it reaches it: no count can claim
// more nodes, mails, events or feature values than the bytes after it could
// encode (when the length is known) or than have arrived (when it is not).
// Nothing of the model is touched; its shapes and node space are read.
// Requires applyMu.
func (m *Model) stageCheckpoint(c *ckptReader) (img *Snapshot, params []byte, err error) {
	short := func(section string) error {
		return fmt.Errorf("core: load checkpoint %s: %w", section, c.err)
	}
	if magic := c.take(4); magic != nil && string(magic) != ckptMagic {
		return nil, nil, fmt.Errorf("core: load checkpoint: bad magic %q", magic)
	}
	if version := c.u32(); c.err != nil {
		return nil, nil, short("header")
	} else if version != ckptVersion {
		return nil, nil, fmt.Errorf("core: load checkpoint: unsupported version %d", version)
	}
	// The parameter blob's length follows from the model's own shapes (nn's
	// layout: magic | version | count, then rows | cols | values per tensor),
	// so it is read whole, then checked.
	own := m.Params()
	blobBytes := 12
	for _, p := range own {
		blobBytes += 8 + 4*len(p.W.Data)
	}
	params = make([]byte, blobBytes)
	n := c.full(params)
	if c.err != nil {
		return nil, nil, short("parameters")
	}
	if _, err := nn.CheckParams(params[:n], own); err != nil {
		return nil, nil, err
	}

	numNodes, dim := int64(c.u32()), int64(c.u32())
	if c.err != nil {
		return nil, nil, short("state")
	}
	if dim != int64(m.Cfg.EdgeDim) {
		return nil, nil, fmt.Errorf("core: load checkpoint: dim %d, model %d", dim, m.Cfg.EdgeDim)
	}
	// A node costs its state row and at least a mail count; then 8 bytes.
	rowBytes := 4*int(dim) + ckptNodeBytes
	if left := c.exist(); c.size >= 0 && numNodes*int64(rowBytes+4)+8 > left {
		return nil, nil, fmt.Errorf("core: load checkpoint: node count %d needs more than the %d bytes left", numNodes, left)
	}
	if grow := uint64(numNodes) * uint64(m.Cfg.Slots+1) * uint64(dim) * 4; numNodes > int64(m.Cfg.NumNodes) && grow > ckptMaxGrowBytes {
		return nil, nil, fmt.Errorf("core: load checkpoint: node count %d would allocate %d store bytes (max %d)",
			numNodes, grow, uint64(ckptMaxGrowBytes))
	}
	// Grow to a checkpoint written after dynamic node admission, so every
	// admitted node comes back; nodes beyond a smaller one stay cold. The
	// state index grows with the rows read, and both indexes reach the
	// file's count only once its rows have arrived.
	space := max(int(numNodes), m.Cfg.NumNodes)
	d, slots := int(dim), m.Cfg.Slots
	img = &Snapshot{}
	img.st, img.mb = m.newStores(m.Cfg.NumNodes)
	rows, ts := make([]float32, slots*d), make([]float64, slots)
	for n := 0; n < int(numNodes) && c.err == nil; n++ {
		c.floats(rows[:d])
		lastTime, touched := c.f64(), c.take(1)
		if touched != nil && touched[0] == 1 {
			if n >= img.st.NumNodes() {
				img.st.Grow(min(int(numNodes), 2*(n+1)))
			}
			img.st.Set(int32(n), rows[:d], lastTime)
		}
	}
	if c.err != nil {
		return nil, nil, short("state")
	}
	img.st.Grow(space)
	img.mb.Grow(space)

	// A node's mails go in as one block, in slot order, under the model's ψ.
	for n := 0; n < int(numNodes) && c.err == nil; n++ {
		count := int(c.u32())
		if count > slots {
			return nil, nil, fmt.Errorf("core: load checkpoint mailbox: node %d has %d mails, max %d", n, count, slots)
		}
		for i := 0; i < count; i++ {
			ts[i] = c.f64()
			c.floats(rows[i*d : (i+1)*d])
		}
		if count > 0 && c.err == nil {
			img.mb.SetMails(int32(n), rows[:count*d], ts[:count])
		}
	}
	if c.err != nil {
		return nil, nil, short("mailbox")
	}

	// The graph's events in arrival order, features cut from shared arenas,
	// not allocated per event.
	numEvents := c.u64()
	if c.err != nil {
		return nil, nil, short("graph")
	}
	if left := c.exist(); c.size >= 0 {
		if numEvents > uint64(left)/ckptEventBytes {
			return nil, nil, fmt.Errorf("core: load checkpoint graph: event count %d needs more than the %d bytes left", numEvents, left)
		}
		img.events = make([]tgraph.Event, 0, numEvents)
	}
	var arena []float32
	for i := uint64(0); i < numEvents && c.err == nil; i++ {
		h := c.take(ckptEventBytes)
		if h == nil {
			break
		}
		src, dst, featLen := le.Uint32(h), le.Uint32(h[4:]), le.Uint32(h[17:])
		// AddEvent panics outside the node space the graph is rebuilt over.
		if src >= uint32(space) || dst >= uint32(space) {
			return nil, nil, fmt.Errorf("core: load checkpoint graph: event %d joins nodes %d and %d, outside [0,%d)", i, int32(src), int32(dst), space)
		}
		if featLen > ckptMaxFeatLen {
			return nil, nil, fmt.Errorf("core: load checkpoint graph: absurd feature length %d", featLen)
		}
		ev := tgraph.Event{Src: tgraph.NodeID(src), Dst: tgraph.NodeID(dst), Time: math.Float64frombits(le.Uint64(h[8:])), Label: int8(h[16])}
		ev.Feat, arena = c.feat(int(featLen), arena)
		img.events = append(img.events, ev)
	}
	if c.err != nil {
		return nil, nil, short("graph")
	}
	if extra := c.trailing(); c.err != nil {
		return nil, nil, short("end")
	} else if extra > 0 {
		return nil, nil, fmt.Errorf("core: load checkpoint: %d trailing bytes", extra)
	}
	return img, params, nil
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint into a
// model of the same architecture; a checkpoint grown by dynamic node
// admission grows the loading model to match. All or nothing: on an error
// the model — parameters, stores, graph, evictor — is exactly as it was.
// r is read once, to its end, through one bounded buffer.
func (m *Model) LoadCheckpoint(r io.Reader) error {
	return m.load(&ckptReader{r: r, buf: make([]byte, ckptMinReadBytes), size: -1})
}

// loadCheckpoint is LoadCheckpoint over b, which is its own buffer.
func (m *Model) loadCheckpoint(b []byte) error {
	return m.load(&ckptReader{buf: b, end: len(b), size: int64(len(b)), read: int64(len(b))})
}

// load stages c's checkpoint, installs its image and publishes its
// parameters, all under one hold of applyMu, reading included: applies wait
// for the whole load, scorers only for the store swap and the publish.
func (m *Model) load(c *ckptReader) error {
	m.applyMu.Lock()
	defer m.applyMu.Unlock()
	img, params, err := m.stageCheckpoint(c)
	if err != nil {
		return err
	}
	m.install(img)
	nn.DecodeParams(params, m.Params())
	m.publishOwn()
	return nil
}

// Checkpoint writes a checkpoint to path atomically (temp + fsync + rename
// + directory fsync) and returns the cut's watermark: the number of graph
// events captured. The file is durable before the rename makes it visible,
// so a crash never leaves a valid-looking checkpoint missing its tail, and
// the rename is durable before the watermark is returned. The caller can hand
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
	// The rename is durable only once the directory is: a caller truncates
	// the log behind the watermark it gets back.
	if err := wal.SyncDir(filepath.Dir(path)); err != nil {
		return 0, fmt.Errorf("core: checkpoint to %s: sync directory: %w", path, err)
	}
	return watermark, nil
}

// LoadCheckpointFile is LoadCheckpoint over path's bytes, the buffer sized
// to the file when that is smaller.
func (m *Model) LoadCheckpointFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if !fi.Mode().IsRegular() {
		return m.LoadCheckpoint(f)
	}
	return m.load(&ckptReader{r: f, buf: make([]byte, min(fi.Size(), ckptSpillBytes)), size: fi.Size()})
}
