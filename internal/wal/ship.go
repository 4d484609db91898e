package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Log shipping.
//
// A Shipper incrementally copies a leader's WAL directory — byte-for-byte,
// per segment — to a ShipDest, tracking how far each segment has been
// shipped so every pass moves only the delta. The follower side never
// needs leader cooperation beyond the files themselves: segments are
// append-only (rotation seals them; nothing rewrites history), so a chunk
// shipped at offset N is final. The destination may therefore lag
// mid-record; the Follower's scanner treats an incomplete tail exactly
// like a torn write — wait, don't fail.
//
// Every pass ships the active segment's bytes as they land, not only
// sealed segments, which keeps follower lag at one ship interval instead of
// one segment.
//
// One subtlety after a leader restart: Open may truncate a torn tail, and
// a fresh Shipper re-ships every segment from byte zero, overwriting the
// follower's copy in place. The follower's file can transiently be longer
// than the leader's (stale torn bytes past the overwritten prefix); those
// bytes fail to frame, so the follower parks before them until the leader
// appends past that offset — and promotion's Open truncates them anyway.

// ShipDest receives shipped WAL bytes. WriteChunk must be idempotent for
// repeated (name, off) writes of the same bytes — re-ships after a
// restart overwrite in place.
type ShipDest interface {
	WriteChunk(name string, off int64, data []byte) error
}

// DirDest ships into a local directory — the follower's WAL copy.
type DirDest struct {
	Dir string
}

// WriteChunk writes data at byte offset off of the named segment file,
// creating the directory and file as needed.
func (d DirDest) WriteChunk(name string, off int64, data []byte) error {
	if _, ok := parseSegmentName(name); !ok {
		return fmt.Errorf("wal: ship: refusing non-segment name %q", name)
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return fmt.Errorf("wal: ship: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(d.Dir, name), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: ship: %w", err)
	}
	defer f.Close()
	if _, err := f.WriteAt(data, off); err != nil {
		return fmt.Errorf("wal: ship: %w", err)
	}
	return nil
}

// ShipOptions configures a Shipper.
type ShipOptions struct {
	// ChunkBytes bounds one WriteChunk call (default 1 MiB).
	ChunkBytes int
}

// Shipper incrementally copies the WAL segments in a source directory to
// a destination. Safe for use while a Log is actively appending to the
// same directory: it reads the files only, and a chunk that catches a
// group mid-write simply leaves the destination with a torn tail that the
// next pass completes.
type Shipper struct {
	dir  string
	dest ShipDest
	opts ShipOptions

	mu      sync.Mutex
	sent    map[string]int64 // bytes shipped so far, per segment base name
	shipped int64            // total bytes shipped
	chunks  int64
}

// NewShipper returns a shipper copying segment bytes from dir to dest.
func NewShipper(dir string, dest ShipDest, opts ShipOptions) *Shipper {
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = 1 << 20
	}
	return &Shipper{dir: dir, dest: dest, opts: opts, sent: make(map[string]int64)}
}

// ShipNow performs one incremental pass over the source directory and
// returns the number of bytes shipped. Deterministic: after a pass with no
// concurrent appends, the destination holds exactly the source's bytes.
func (s *Shipper) ShipNow() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := listSegments(s.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	live := make(map[string]bool, len(segs))
	var total int64
	for _, si := range segs {
		name := filepath.Base(si.path)
		live[name] = true
		n, err := s.shipSegmentLocked(si.path, name)
		total += n
		if err != nil {
			return total, err
		}
	}
	// Forget segments the leader truncated; the follower keeps its copies
	// (its checkpoint watermark may still need them), we just stop tracking.
	for name := range s.sent {
		if !live[name] {
			delete(s.sent, name)
		}
	}
	return total, nil
}

func (s *Shipper) shipSegmentLocked(path, name string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil // truncated between list and stat
		}
		return 0, fmt.Errorf("wal: ship: %w", err)
	}
	from := s.sent[name]
	if st.Size() <= from {
		return 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: ship: %w", err)
	}
	defer f.Close()
	var total int64
	chunk := make([]byte, s.opts.ChunkBytes)
	for from < st.Size() {
		n, rerr := f.ReadAt(chunk, from)
		if n > 0 {
			if werr := s.dest.WriteChunk(name, from, chunk[:n]); werr != nil {
				return total, werr
			}
			from += int64(n)
			total += int64(n)
			s.shipped += int64(n)
			s.chunks++
			s.sent[name] = from
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return total, fmt.Errorf("wal: ship: %w", rerr)
		}
	}
	return total, nil
}

// ShipStats reports a shipper's cumulative volume.
type ShipStats struct {
	Segments     int   `json:"segments"`
	ShippedBytes int64 `json:"shipped_bytes"`
	Chunks       int64 `json:"chunks"`
}

// Stats reports cumulative ship volume.
func (s *Shipper) Stats() ShipStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShipStats{Segments: len(s.sent), ShippedBytes: s.shipped, Chunks: s.chunks}
}

// Ship wire protocol (leader → follower, one TCP connection):
//
//	handshake (follower → leader): "APSH" | version u32
//	messages  (leader → follower):
//	  'C' | nameLen u16 | name | off u64 | dataLen u32 | data   (chunk)
//	  'H' | nextIndex u64                                       (heartbeat)
//
// Heartbeats carry the leader's next log index so the follower can compute
// replication lag in events without a second channel.
const (
	shipMagic    = "APSH"
	shipVersion  = 1
	shipMsgChunk = 'C'
	shipMsgBeat  = 'H'
	shipMaxName  = 1 << 15
)

// connDest ships chunks over an established connection using the ship
// wire protocol. It implements ShipDest.
type connDest struct {
	w *bufio.Writer
}

func (c *connDest) WriteChunk(name string, off int64, data []byte) error {
	if len(name) > shipMaxName {
		return fmt.Errorf("wal: ship: segment name too long (%d)", len(name))
	}
	var hdr [3]byte
	hdr[0] = shipMsgChunk
	binary.LittleEndian.PutUint16(hdr[1:], uint16(len(name)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.WriteString(name); err != nil {
		return err
	}
	var tail [12]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(off))
	binary.LittleEndian.PutUint32(tail[8:], uint32(len(data)))
	if _, err := c.w.Write(tail[:]); err != nil {
		return err
	}
	_, err := c.w.Write(data)
	return err
}

func (c *connDest) heartbeat(next uint64) error {
	var msg [9]byte
	msg[0] = shipMsgBeat
	binary.LittleEndian.PutUint64(msg[1:], next)
	_, err := c.w.Write(msg[:])
	return err
}

// shipHandshakeTimeout bounds how long a connection may take to send its
// handshake.
const shipHandshakeTimeout = 10 * time.Second

// ServeShipConn ships srcDir over one follower connection until the
// connection drops or stop closes: it validates the handshake, then
// alternates incremental ship passes with heartbeats carrying next() —
// the leader's next log index — every interval. Closing stop closes conn,
// so a follower that never sends its handshake or stops reading cannot
// hold the leader in a read or a write; the call then returns nil.
func ServeShipConn(conn net.Conn, srcDir string, next func() uint64, interval time.Duration, stop <-chan struct{}) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-stop:
		case <-done:
		}
		conn.Close()
	}()
	err := serveShipConn(conn, srcDir, next, interval, stop)
	select {
	case <-stop:
		return nil
	default:
		return err
	}
}

func serveShipConn(conn net.Conn, srcDir string, next func() uint64, interval time.Duration, stop <-chan struct{}) error {
	var hs [8]byte
	conn.SetReadDeadline(time.Now().Add(shipHandshakeTimeout))
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return fmt.Errorf("wal: ship handshake: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if string(hs[:4]) != shipMagic {
		return fmt.Errorf("wal: ship handshake: bad magic %q", hs[:4])
	}
	if v := binary.LittleEndian.Uint32(hs[4:]); v != shipVersion {
		return fmt.Errorf("wal: ship handshake: unsupported version %d", v)
	}
	dest := &connDest{w: bufio.NewWriterSize(conn, 1<<16)}
	sh := NewShipper(srcDir, dest, ShipOptions{})
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if _, err := sh.ShipNow(); err != nil {
			return err
		}
		if err := dest.heartbeat(next()); err != nil {
			return err
		}
		if err := dest.w.Flush(); err != nil {
			return err
		}
		select {
		case <-stop:
			return nil
		case <-t.C:
		}
	}
}

// ServeShip accepts follower connections on ln, shipping srcDir to each
// (every connection gets its own full re-ship from byte zero — chunk
// writes are idempotent, so reconnects are always safe). Returns when ln
// is closed; closing ln is the caller's stop signal.
func ServeShip(ln net.Listener, srcDir string, next func() uint64, interval time.Duration, stop <-chan struct{}) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	go func() {
		<-stop
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-stop:
				return nil
			default:
				return err
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ServeShipConn(conn, srcDir, next, interval, stop)
		}()
	}
}

// FollowShip is the receiving side of the ship protocol: it sends the
// handshake on conn, then writes every chunk message through dest and
// invokes onHeartbeat (may be nil) with the leader's next log index for
// each heartbeat. Returns when the connection drops (io.EOF means the
// leader went away cleanly) or when dest refuses a chunk.
//
// dest is usually DirDest (a plain WAL copy) — or a fencing wrapper such
// as Replica.ShipDest, which refuses writes the moment promotion begins
// so a still-alive ex-leader's stream can never land bytes under a
// directory that has been reopened for appends.
func FollowShip(conn net.Conn, dest ShipDest, onHeartbeat func(nextIndex uint64)) error {
	var hs [8]byte
	copy(hs[:4], shipMagic)
	binary.LittleEndian.PutUint32(hs[4:], shipVersion)
	if _, err := conn.Write(hs[:]); err != nil {
		return fmt.Errorf("wal: ship handshake: %w", err)
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	var name, data bytes.Buffer
	for {
		kind, err := br.ReadByte()
		if err != nil {
			return err
		}
		switch kind {
		case shipMsgBeat:
			var b [8]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return err
			}
			if onHeartbeat != nil {
				onHeartbeat(binary.LittleEndian.Uint64(b[:]))
			}
		case shipMsgChunk:
			var nl [2]byte
			if _, err := io.ReadFull(br, nl[:]); err != nil {
				return err
			}
			nameLen := int64(binary.LittleEndian.Uint16(nl[:]))
			if nameLen > shipMaxName {
				return fmt.Errorf("wal: ship: segment name too long (%d)", nameLen)
			}
			if err := readGrowing(&name, br, nameLen); err != nil {
				return err
			}
			var oh [12]byte
			if _, err := io.ReadFull(br, oh[:]); err != nil {
				return err
			}
			off := int64(binary.LittleEndian.Uint64(oh[:8]))
			n := binary.LittleEndian.Uint32(oh[8:])
			if n > maxPayloadBytes {
				return fmt.Errorf("wal: ship: absurd chunk length %d", n)
			}
			if err := readGrowing(&data, br, int64(n)); err != nil {
				return err
			}
			if err := dest.WriteChunk(name.String(), off, data.Bytes()); err != nil {
				return err
			}
		default:
			return fmt.Errorf("wal: ship: unknown message type %q", kind)
		}
	}
}

// readGrowing reads n bytes from r into buf, which grows as the bytes
// arrive, so a declared length the stream never delivers sizes no
// allocation.
func readGrowing(buf *bytes.Buffer, r io.Reader, n int64) error {
	buf.Reset()
	if _, err := io.CopyN(buf, r, n); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}
