package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"apan/internal/async"
	"apan/internal/core"
	"apan/internal/dataset"
	"apan/internal/serve"
	"apan/internal/tgraph"
	"apan/internal/wal"
)

// fixedStreamGolden pins what the fixed stream leaves behind, bit for bit:
// the sha256 of every score's float32 bits (little-endian, event order), the
// RuntimeDigest, and the sha256 of the checkpoint file and of the first WAL
// segment (default wal.Options). The wire row is the same stream posted to
// /v1/score: the request body has no label field, so its events carry label
// -1 into the log and the checkpoint, and only those two files differ. The
// values have not moved since the checkpoint byte codec and the AVX2 Axpy
// kernel landed; CHANGES.md records each change that held them. A change
// that means to alter numerics updates this table and says why in
// CHANGES.md.
var fixedStreamGolden = struct {
	scores    string
	digest    uint64
	dataset   goldenFiles
	wire      goldenFiles
	ckptBytes int
	walBytes  int
}{
	scores: "d6c28c58791a943d4e510b73b7ace3dca46e31890ff4bb006cde444229c13bca",
	digest: 0x2c5f200e6d611fa9,
	dataset: goldenFiles{
		checkpoint: "e65d52c2d82bf1d840ffe749be4edb6a1af98895602e2601895c6f2d6061a83b",
		wal:        "f75ea8252dbf57da95de2ad9a7903bc8c4ebac347d093a87e9b928f3b7930e71",
	},
	wire: goldenFiles{
		checkpoint: "6f4b4cbcdbec5fa1d9d0e5192ca9774cf5a80ec90e0dacd7b0dd6a10bceac95a",
		wal:        "9d5e46a304c8a3487f6c0659663f9a795f9f2c86775a6170079f8c5ca69321da",
	},
	ckptBytes: 5256773,
	walBytes:  3923616,
}

// goldenFiles holds the sha256 of a checkpoint file and of a WAL segment.
type goldenFiles struct{ checkpoint, wal string }

// The fixed stream: the first goldenEvents events of Wikipedia at scale
// 0.05, seed 77, served in batches of goldenBatch into a model with Seed 77
// and an eviction budget of 300 nodes, so readmission runs too.
const (
	goldenEvents = 4000
	goldenBatch  = 200
)

// goldenDataset is generated once per test binary: under -race the
// generator costs more than a path. Paths only read it.
var goldenDataset = sync.OnceValue(func() *dataset.Dataset {
	return dataset.Wikipedia(dataset.Config{Scale: 0.05, Seed: 77})
})

func goldenModel(t *testing.T, ds *dataset.Dataset) *core.Model {
	t.Helper()
	m, err := core.New(core.Config{NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim, Seed: 77, EvictMaxNodes: 300})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenLeader serves the fixed stream through serveBatch (which must leave
// the batch applied when it returns) into a fresh model with a WAL attached
// in walDir and checks every constant, the files against want.
func goldenLeader(t *testing.T, walDir string, want goldenFiles, serveBatch func(m *core.Model, batch []tgraph.Event) []float32) {
	t.Helper()
	ds := goldenDataset()
	m := goldenModel(t, ds)
	l, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [4]byte
	events := ds.Events[:goldenEvents]
	for i := 0; i < len(events); i += goldenBatch {
		scores := serveBatch(m, events[i:i+goldenBatch])
		if len(scores) != goldenBatch {
			t.Fatalf("batch at %d: %d scores, want %d", i, len(scores), goldenBatch)
		}
		for _, s := range scores {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(s))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fixedStreamGolden.scores {
		t.Errorf("scores sha256 %s, want %s", got, fixedStreamGolden.scores)
	}
	checkGoldenRuntime(t, m, want)
	if err := m.DetachWAL().Close(); err != nil {
		t.Fatal(err)
	}
	checkGoldenFile(t, "WAL segment", filepath.Join(walDir, "wal-0000000000000000.seg"), want.wal, fixedStreamGolden.walBytes)
}

// checkGoldenRuntime checks the model's RuntimeDigest and the checkpoint it
// writes.
func checkGoldenRuntime(t *testing.T, m *core.Model, want goldenFiles) {
	t.Helper()
	if got := m.RuntimeDigest(); got != fixedStreamGolden.digest {
		t.Errorf("RuntimeDigest %016x, want %016x", got, fixedStreamGolden.digest)
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	if _, err := m.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	checkGoldenFile(t, "checkpoint", ckpt, want.checkpoint, fixedStreamGolden.ckptBytes)
}

func checkGoldenFile(t *testing.T, what, path, wantSum string, wantLen int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != wantSum || len(b) != wantLen {
		t.Errorf("%s: sha256 %x (%d B), want %s (%d B)", what, sum, len(b), wantSum, wantLen)
	}
}

// goldenBody writes a /v1/score batch body the way the benchmark rig does:
// the shortest 'g' form of each number, which parses back to the same bits.
func goldenBody(batch []tgraph.Event) []byte {
	b := []byte(`{"events":[`)
	for i := range batch {
		ev := &batch[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"src":%d,"dst":%d,"time":`, ev.Src, ev.Dst)
		b = strconv.AppendFloat(b, ev.Time, 'g', -1, 64)
		b = append(b, `,"feat":[`...)
		for j, f := range ev.Feat {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(f), 'g', -1, 32)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// TestFixedStreamGolden serves the fixed stream down every path that scores
// or applies it — direct model calls, async.Pipeline, the HTTP server, WAL
// replay into a fresh model and a follower tailing the log — and requires
// each to land on the same constants. The numerics every refactor promises
// to keep are stated here, not in a one-off comparison. The direct path
// runs first and writes the log the two replay paths read; the other four
// then run in parallel.
func TestFixedStreamGolden(t *testing.T) {
	ctx := context.Background()
	walDir := filepath.Join(t.TempDir(), "wal")

	t.Run("direct", func(t *testing.T) {
		var p core.Pending
		goldenLeader(t, walDir, fixedStreamGolden.dataset, func(m *core.Model, batch []tgraph.Event) []float32 {
			m.ReadmitBatch(batch)
			scores := append([]float32(nil), m.Score(batch, &p)...)
			m.ApplyPending(&p)
			return scores
		})
	})

	t.Run("pipeline", func(t *testing.T) {
		t.Parallel()
		var p *async.Pipeline
		goldenLeader(t, filepath.Join(t.TempDir(), "wal"), fixedStreamGolden.dataset, func(m *core.Model, batch []tgraph.Event) []float32 {
			if p == nil {
				p = async.New(m)
			}
			scores, _, err := p.Submit(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			return scores
		})
		if err := p.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("http", func(t *testing.T) {
		t.Parallel()
		var (
			p   *async.Pipeline
			srv *serve.Server
			ts  *httptest.Server
		)
		goldenLeader(t, filepath.Join(t.TempDir(), "wal"), fixedStreamGolden.wire, func(m *core.Model, batch []tgraph.Event) []float32 {
			if p == nil {
				p = async.New(m)
				srv = serve.New(p, serve.Options{})
				ts = httptest.NewServer(srv)
			}
			resp, err := http.Post(ts.URL+"/v1/score", "application/json", bytes.NewReader(goldenBody(batch)))
			if err != nil {
				t.Fatal(err)
			}
			var body serve.ScoreResponse
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/score: status %d, %v", resp.StatusCode, err)
			}
			if err := p.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			return body.Scores
		})
		ts.Close()
		srv.Close()
		if err := p.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("replay", func(t *testing.T) {
		t.Parallel()
		m := goldenModel(t, goldenDataset())
		l, err := wal.Open(wal.Options{Dir: walDir})
		if err != nil {
			t.Fatal(err)
		}
		n, err := m.RecoverWAL(l)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if n != goldenEvents {
			t.Fatalf("replayed %d events, want %d", n, goldenEvents)
		}
		checkGoldenRuntime(t, m, fixedStreamGolden.dataset)
	})

	t.Run("follower", func(t *testing.T) {
		t.Parallel()
		m := goldenModel(t, goldenDataset())
		f, err := wal.OpenFollower(walDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.Poll(m.ReplayBatch)
		if err != nil {
			t.Fatal(err)
		}
		if want := goldenEvents / goldenBatch; n != want {
			t.Fatalf("follower delivered %d records, want %d", n, want)
		}
		checkGoldenRuntime(t, m, fixedStreamGolden.dataset)
	})
}
