package wal

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// dirsEqual compares every segment file in a against its counterpart in b
// byte-for-byte (b may hold extra files; shipping never deletes).
func dirsEqual(t *testing.T, a, b string) {
	t.Helper()
	segs, err := listSegments(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, si := range segs {
		want, err := os.ReadFile(si.path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(b, filepath.Base(si.path)))
		if err != nil {
			t.Fatalf("shipped copy of %s: %v", filepath.Base(si.path), err)
		}
		if string(want) != string(got) {
			t.Fatalf("%s: shipped bytes differ (%d vs %d bytes)", filepath.Base(si.path), len(want), len(got))
		}
	}
}

// TestShipperTailMode: each pass after a durable batch leaves the
// destination byte-identical to the source, live segment included, across
// rotations, and re-passes ship nothing new.
func TestShipperTailMode(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	l, err := Open(Options{Dir: src, Policy: SyncGroup, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sh := NewShipper(src, DirDest{Dir: dst}, ShipOptions{ChunkBytes: 64})
	for i := 0; i < 12; i++ {
		if err := begin(l, mkBatch(i*4, 4)).Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.ShipNow(); err != nil {
			t.Fatal(err)
		}
		dirsEqual(t, src, dst)
	}
	n, err := sh.ShipNow()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("idle pass shipped %d bytes, want 0", n)
	}
	if st := sh.Stats(); st.ShippedBytes == 0 || st.Chunks == 0 {
		t.Fatalf("stats empty after shipping: %+v", st)
	}
}

// TestShipWireProtocol: a leader serving over a pipe and a follower
// receiving reproduce the source directory bytes and deliver heartbeats
// with the leader's next index.
func TestShipWireProtocol(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	writeTestLog(t, src, 5, 10, 4)

	leaderConn, followerConn := net.Pipe()
	stop := make(chan struct{})
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeShipConn(leaderConn, src, func() uint64 { return 40 }, time.Millisecond, stop)
	}()

	beats := make(chan uint64, 64)
	recvErr := make(chan error, 1)
	go func() {
		recvErr <- FollowShip(followerConn, DirDest{Dir: dst}, func(next uint64) {
			select {
			case beats <- next:
			default:
			}
		})
	}()

	select {
	case next := <-beats:
		if next != 40 {
			t.Fatalf("heartbeat next index %d, want 40", next)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no heartbeat within 5s")
	}
	// Heartbeats arrive after each full ship pass, so one beat means the
	// whole (static) directory has been shipped.
	close(stop)
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	<-recvErr // pipe closed by serve side; any error is the close itself
	dirsEqual(t, src, dst)

	// The shipped copy must replay identically to the source.
	l, err := Open(Options{Dir: dst})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NextIndex() != 40 {
		t.Fatalf("shipped log next index %d, want 40", l.NextIndex())
	}
}

// shipHandshake is a follower's valid handshake: "APSH", version 1.
var shipHandshake = []byte{'A', 'P', 'S', 'H', 1, 0, 0, 0}

// acceptSignal reports each connection its listener accepts.
type acceptSignal struct {
	net.Listener
	accepted chan struct{}
}

func (l acceptSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// TestServeShipReturnsOnStop: closing stop ends ServeShip even while a
// follower is connected but has sent nothing, and ends ServeShipConn while
// a follower that sent its handshake has stopped reading — neither may
// park the leader in a read or a write.
func TestServeShipReturnsOnStop(t *testing.T) {
	src := t.TempDir()
	writeTestLog(t, src, 5, 10, 4)
	returns := func(t *testing.T, stop chan struct{}, served chan error) {
		t.Helper()
		close(stop)
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("stopped leader returned %v, want nil", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("the leader is still running 2s after stop closed")
		}
	}

	t.Run("silent", func(t *testing.T) {
		tcp, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln := acceptSignal{Listener: tcp, accepted: make(chan struct{}, 1)}
		stop, served := make(chan struct{}), make(chan error, 1)
		go func() { served <- ServeShip(ln, src, func() uint64 { return 40 }, time.Millisecond, stop) }()
		conn, err := net.Dial("tcp", tcp.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		<-ln.accepted
		returns(t, stop, served)
	})

	t.Run("not reading", func(t *testing.T) {
		leader, follower := net.Pipe()
		defer follower.Close()
		stop, served := make(chan struct{}), make(chan error, 1)
		go func() { served <- ServeShipConn(leader, src, func() uint64 { return 40 }, time.Millisecond, stop) }()
		if _, err := follower.Write(shipHandshake); err != nil {
			t.Fatal(err)
		}
		returns(t, stop, served)
	})
}

// TestFollowShipRejectsTraversal: chunk names that are not segment names
// (e.g. path traversal) are refused by the receiving side.
func TestFollowShipRejectsTraversal(t *testing.T) {
	dst := t.TempDir()
	if err := (DirDest{Dir: dst}).WriteChunk("../evil.seg", 0, []byte("x")); err == nil {
		t.Fatal("traversal chunk name accepted")
	}
}

// FuzzFollowShip feeds arbitrary leader bytes to FollowShip over a pipe. It
// must not panic; every chunk and heartbeat it delivers must re-encode
// through connDest, the leader's encoder, to the bytes it read, so the
// re-encoded stream is a prefix of the input; and what it allocates is
// bounded by the input, whatever lengths the input declares.
func FuzzFollowShip(f *testing.F) {
	var stream bytes.Buffer
	enc := &connDest{w: bufio.NewWriter(&stream)}
	enc.heartbeat(40)
	enc.WriteChunk(segmentName(1), 0, []byte(segMagic+"payload"))
	enc.WriteChunk(segmentName(1), 11, nil)
	enc.heartbeat(41)
	enc.w.Flush()
	good := stream.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{shipMsgChunk, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x40}) // declares a 1 GiB chunk
	f.Add([]byte{shipMsgChunk, 0xff, 0xff})
	f.Add([]byte{'X'})
	f.Fuzz(func(t *testing.T, b []byte) {
		out := bytes.NewBuffer(make([]byte, 0, len(b)))
		enc := &connDest{w: bufio.NewWriterSize(out, 4096)}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		leader, follower := net.Pipe()
		handshake := make(chan []byte, 1)
		go func() {
			var hs [8]byte
			io.ReadFull(leader, hs[:])
			handshake <- hs[:]
			leader.Write(b)
			leader.Close()
		}()
		err := FollowShip(follower, enc, func(next uint64) { enc.heartbeat(next) })
		follower.Close()
		hs := <-handshake
		runtime.ReadMemStats(&ms1)
		if got, limit := ms1.TotalAlloc-ms0.TotalAlloc, uint64(256<<10+8*len(b)); got > limit {
			t.Fatalf("a %d-byte stream allocated %d bytes (limit %d), err = %v", len(b), got, limit, err)
		}
		if string(hs[:4]) != shipMagic {
			t.Fatalf("handshake %q", hs)
		}
		if err := enc.w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, out.Bytes()) {
			t.Fatalf("delivered messages re-encode to %x, not a prefix of the input %x (err = %v)", out.Bytes(), b, err)
		}
	})
}

// FuzzServeShipConn feeds arbitrary follower bytes to the leader side over
// a pipe. It must not panic; it must refuse, writing nothing, every
// handshake but "APSH" version 1; and after that one it must ship, then
// return nil once stop closes, though the follower reads no further.
func FuzzServeShipConn(f *testing.F) {
	src := f.TempDir()
	writeTestLog(f, src, 5, 10, 4)
	f.Add(shipHandshake)
	f.Add(append(append([]byte(nil), shipHandshake...), "trailing"...))
	f.Add([]byte{'A', 'P', 'S', 'H', 2, 0, 0, 0})
	f.Add([]byte("APWL\x01\x00\x00\x00"))
	f.Add([]byte("APS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		leader, follower := net.Pipe()
		defer follower.Close()
		stop, served := make(chan struct{}), make(chan error, 1)
		go func() { served <- ServeShipConn(leader, src, func() uint64 { return 40 }, time.Hour, stop) }()
		go func() {
			// The leader reads the handshake and nothing after it, so this
			// write ends when the connection closes.
			follower.Write(b)
			if len(b) < len(shipHandshake) {
				follower.Close()
			}
		}()
		if len(b) < len(shipHandshake) {
			if err := <-served; err == nil {
				t.Fatalf("a %d-byte handshake was accepted", len(b))
			}
			return
		}
		var first [1]byte
		n, _ := io.ReadFull(follower, first[:])
		if !bytes.Equal(b[:len(shipHandshake)], shipHandshake) {
			if n != 0 {
				t.Fatalf("handshake %q: the leader wrote %q", b[:len(shipHandshake)], first[:n])
			}
			if err := <-served; err == nil {
				t.Fatalf("handshake %q was accepted", b[:len(shipHandshake)])
			}
			return
		}
		if n != 1 || first[0] != shipMsgChunk {
			t.Fatalf("after a valid handshake the leader's first byte is %q, want a chunk", first[:n])
		}
		close(stop)
		if err := <-served; err != nil {
			t.Fatalf("stopped leader returned %v", err)
		}
	})
}

// TestFaultInjectSyncLatches: an injected fsync error latches the log —
// the failing batch's bytes are written (readable by a shipper/follower),
// every later commit fails, and no later bytes reach the file.
func TestFaultInjectSyncLatches(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	syncs := 0
	l, err := Open(Options{Dir: dir, Policy: SyncGroup, Inject: &FaultInjector{
		BeforeSync: func(string) error {
			syncs++
			if syncs == 3 {
				return boom
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abandon()
	for i := 0; i < 2; i++ {
		if err := begin(l, mkBatch(i*4, 4)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := begin(l, mkBatch(8, 4)).Wait(); !errors.Is(err, boom) {
		t.Fatalf("batch at failing sync: err=%v, want %v", err, boom)
	}
	sizeAfter := dirBytes(t, dir)
	for i := 3; i < 6; i++ {
		if err := begin(l, mkBatch(i*4, 4)).Wait(); !errors.Is(err, boom) {
			t.Fatalf("post-latch commit err=%v, want %v", err, boom)
		}
	}
	if got := dirBytes(t, dir); got != sizeAfter {
		t.Fatalf("log grew after latched error: %d -> %d bytes", sizeAfter, got)
	}
	if !errors.Is(l.Err(), boom) {
		t.Fatalf("Err() = %v, want latched %v", l.Err(), boom)
	}
	// The failed-sync batch's bytes are in the file: a fresh Open sees all
	// three batches (12 events).
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextIndex() != 12 {
		t.Fatalf("recovered next index %d, want 12 (failed-fsync batch still readable)", l2.NextIndex())
	}
}

// TestFaultInjectWriteError: an injected write error means the group's
// bytes never land — recovery sees only the batches before it.
func TestFaultInjectWriteError(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("disk full")
	writes := 0
	l, err := Open(Options{Dir: dir, Policy: SyncGroup, Inject: &FaultInjector{
		BeforeWrite: func(string, int64, int) error {
			writes++
			if writes >= 2 {
				return boom
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abandon()
	if err := begin(l, mkBatch(0, 4)).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := begin(l, mkBatch(4, 4)).Wait(); !errors.Is(err, boom) {
		t.Fatalf("err=%v, want %v", err, boom)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextIndex() != 4 {
		t.Fatalf("recovered next index %d, want 4 (failed write left no bytes)", l2.NextIndex())
	}
}

func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, si := range segs {
		st, err := os.Stat(si.path)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}
