// Command apan-serve exposes APAN's deployment architecture (paper
// Fig. 2b) over the v1 HTTP/JSON API: the request path runs only the
// synchronous link (mailbox read + encoder + decoder) while graph writes
// and mail propagation happen on the asynchronous applier, with a
// server-side micro-batcher coalescing concurrent single-event requests.
//
// Endpoints (schemas in docs/serving.md):
//
//	POST /v1/score                {"src":12,"dst":9311,"time":1234.5,"feat":[...]}
//	                              or {"events":[{...},...]} for a batch
//	GET  /v1/stats                pipeline + batcher + online-trainer + replication instrumentation
//	GET  /v1/livez                liveness (200 while the process can answer)
//	GET  /v1/readyz               readiness (503 when degraded: WAL latched error,
//	                              follower lag past -max-lag-events, checkpoint failures)
//	GET  /v1/healthz              legacy: always 200, verdict in the body
//	GET  /v1/explain/{node}       attention over the node's current mailbox
//	POST /v1/admin/promote        promote a follower to leader (409 if already promoted)
//	POST /v1/admin/train/freeze   pause online training (with -train-online)
//	POST /v1/admin/train/resume   resume online training
//
// Run a self-contained demo (train briefly, serve over HTTP, replay the
// test stream through the batch endpoint, print latency figures):
//
//	apan-serve -demo -scale 0.02 -db-latency 500us
//
// Long-running deployments can learn from the stream they score and survive
// restarts (see docs/training.md):
//
//	apan-serve -train-online -checkpoint-every 5m -checkpoint /var/lib/apan.ckpt
//	apan-serve -load /var/lib/apan.ckpt -train-online
//
// With a write-ahead log, a crash loses at most the fsync window instead of
// everything since the last checkpoint — recovery is checkpoint + replay to
// the log's end (see docs/durability.md). SIGINT/SIGTERM trigger a graceful
// exit: drain the pipeline, sync the log, write a final checkpoint.
//
//	apan-serve -wal /var/lib/apan-wal -fsync group -checkpoint-every 5m -checkpoint /var/lib/apan.ckpt
//	apan-serve -load /var/lib/apan.ckpt -wal /var/lib/apan-wal
//
// Warm-standby replication ships the leader's WAL to a follower that
// replays it continuously and serves read-only, lag-stamped scores until
// promoted (docs/durability.md). The follower starts from the same base
// checkpoint the leader logs past:
//
//	apan-serve -wal /var/lib/apan-wal -ship-addr :7690 -checkpoint /var/lib/apan.ckpt ...
//	apan-serve -load /var/lib/apan.ckpt -follow leader:7690 -wal /var/lib/apan-follower-wal
//	curl -X POST follower:7683/v1/admin/promote   # takeover
//
// Promotion fences the ship stream at the disk-write layer (a still-alive
// ex-leader cannot corrupt the new leader's log) and severs the
// connection. A follower given -ship-addr parks the listener until
// promotion, then serves its own log to the next standby — no restart.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"apan"
	"apan/internal/serve"
)

// Read deadlines for the API listener, so that a client which opens a
// request and stalls cannot hold a handler and its body buffer forever:
// headers must arrive within readHeaderTimeout and the whole request within
// readTimeout, which net/http also applies to idle keep-alive connections.
// The benchmark's 373 KB bodies take milliseconds on a LAN.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apan-serve: ")

	var (
		addr      = flag.String("addr", "127.0.0.1:7683", "listen address")
		scale     = flag.Float64("scale", 0.02, "training dataset scale")
		epochs    = flag.Int("epochs", 3, "training epochs before serving")
		dbLatency = flag.Duration("db-latency", 0, "simulated graph-DB latency per round trip on the async link (one round trip per hop per batch)")
		queueCap  = flag.Int("queue-cap", 256, "propagation queue capacity (backpressure bound)")
		maxNodes  = flag.Int("max-nodes", 1<<20, "dynamic node admission limit (negative disables admission)")
		seed      = flag.Int64("seed", 1, "process seed: dataset, model init, and retry-backoff jitter (same seed, same run)")
		demoBatch = flag.Int("demo-batch", 50, "events per request in demo replay")
		demo      = flag.Bool("demo", false, "replay the test stream over HTTP, print latency stats, then exit")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (heap, allocs, profile, trace — see docs/performance.md)")

		loadPath  = flag.String("load", "", "start from this checkpoint (parameters + streaming state) instead of training")
		ckptPath  = flag.String("checkpoint", "apan-serve.ckpt", "checkpoint path for -checkpoint-every")
		ckptEvery = flag.Duration("checkpoint-every", 0, "write -checkpoint atomically at this interval (0 disables)")

		walDir     = flag.String("wal", "", "write-ahead log directory: every applied batch is logged for replay-to-watermark recovery (empty disables durability); in -follow addr mode, where shipped segments land")
		fsyncMode  = flag.String("fsync", "interval", "WAL fsync policy: group (durable before ack), interval (bounded loss), none (page cache only)")
		fsyncEvery = flag.Duration("fsync-interval", 0, "with -fsync interval: background fsync cadence (0: 50ms)")

		follow      = flag.String("follow", "", "follower mode: replay the leader's shipped WAL from this address (host:port) or directory; requires -load, serves read-only until POST /v1/admin/promote")
		shipAddr    = flag.String("ship-addr", "", "stream WAL segments to followers connecting on this address; requires -wal as a leader, and with -follow the listener is held until promotion so a promoted leader feeds new standbys without a restart")
		shipEvery   = flag.Duration("ship-every", time.Second, "ship/heartbeat interval (leader) and replay-poll cadence (follower)")
		maxLagEvent = flag.Int64("max-lag-events", 0, "follower readiness bound: /v1/readyz reports degraded past this heartbeat lag (0: 10000, negative disables)")

		trainOnline = flag.Bool("train-online", false, "adapt to the served stream: background trainer + hot parameter swaps (docs/training.md)")
		trainLR     = flag.Float64("train-lr", 0, "online trainer learning rate (0: the model's rate)")
		trainStep   = flag.Int("train-step-every", 0, "applied events per online training step (0: default 64)")
		trainFrozen = flag.Bool("train-frozen", false, "attach the online trainer frozen (resume via POST /v1/admin/train/resume)")

		tenants    = flag.String("tenants", "", "enable multi-tenant admission with these contracts: comma-separated id[:weight[:rate[:lane]]] specs (weight: share of propagation bandwidth, rate: events/s of stream time, lane: strict priority, 0 highest); requests name their tenant via the X-Tenant header or the request's tenant field")
		tenantRate = flag.Float64("tenant-default-rate", 0, "event-time rate limit (events/s of stream time) for tenants not listed in -tenants; >0 also enables multi-tenant admission on its own")
		evictMax   = flag.Int("evict-max-nodes", 0, "cold-state eviction budget: LRU-evict node state and mailbox beyond this many warm nodes, re-warming on re-admission from current neighbors (0 disables)")
	)
	flag.Parse()

	ds := apan.Wikipedia(apan.DatasetConfig{Scale: *scale, Seed: *seed})
	split := ds.Split(0.70, 0.15)

	cfg := apan.Config{
		NumNodes: ds.NumNodes, EdgeDim: ds.EdgeDim, Seed: *seed,
		EvictMaxNodes: *evictMax,
	}
	if err := cfg.Normalize(); err != nil {
		log.Fatal(err)
	}
	db := apan.NewGraphDB(apan.NewGraph(cfg.NumNodes))
	if *dbLatency > 0 {
		db.Latency = apan.ConstantLatency(*dbLatency)
		db.Sleep = true
	}
	model, err := apan.NewWithDB(cfg, db)
	if err != nil {
		log.Fatal(err)
	}

	if *loadPath != "" {
		// Resume from a checkpoint: parameters and the full streaming state
		// (node embeddings, mailboxes, temporal graph) in one load.
		if err := model.LoadCheckpointFile(*loadPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded checkpoint %s (param version %d, %d graph events, %d nodes)",
			*loadPath, model.ParamVersion(), model.GraphEvents(), model.NumNodes())
	} else {
		log.Printf("training %d epochs on %d events…", *epochs, len(split.Train))
		for e := 0; e < *epochs; e++ {
			model.ResetRuntime()
			ns := apan.NewNegSampler(ds.NumNodes)
			tr := model.TrainEpoch(split.Train, ns)
			log.Printf("epoch %d loss %.4f", e+1, tr.Loss)
		}
		// Rebuild streaming state for serving.
		model.ResetRuntime()
		model.EvalStream(split.Train, nil)
		model.EvalStream(split.Val, nil)
	}

	policy, err := apan.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		log.Fatal(err)
	}

	done := make(chan struct{}) // closed once, when shutdown begins

	// Ship listener: created up front in both roles so a bad -ship-addr
	// fails fast. A leader serves it immediately (below); a follower parks
	// it until promotion — early standby connections queue in the accept
	// backlog and are served the moment the promoted leader starts
	// accepting, so feeding a new standby needs no restart.
	var shipLn net.Listener
	if *shipAddr != "" {
		if *follow == "" && *walDir == "" {
			log.Fatal("-ship-addr requires -wal: shipping streams the leader's log directory")
		}
		shipLn, err = net.Listen("tcp", *shipAddr)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Follower mode: no WAL attach and no training — state advances only
	// through replay of the leader's shipped log. -follow names either a
	// directory (shared storage: replay in place) or a leader's -ship-addr
	// (segments stream into -wal, replay from there).
	var rep *apan.Replica
	if *follow != "" {
		if *loadPath == "" {
			log.Fatal("-follow requires -load: the follower starts from the same base checkpoint the leader logs past")
		}
		if *trainOnline {
			log.Fatal("-follow is incompatible with -train-online: a follower's state must stay a pure function of the leader's log")
		}
		followDir, dialAddr := *follow, ""
		if fi, statErr := os.Stat(*follow); statErr != nil || !fi.IsDir() {
			// Network mode: shipped segments land in -wal.
			if *walDir == "" {
				log.Fatal("-follow with a leader address requires -wal: the directory shipped segments land in")
			}
			followDir, dialAddr = *walDir, *follow
			if err := os.MkdirAll(followDir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
		rep, err = apan.NewFollower(model, followDir, apan.ReplicaOptions{
			WAL: apan.WALOptions{Dir: followDir, Policy: policy, SyncEvery: *fsyncEvery},
		})
		if err != nil {
			log.Fatal(err)
		}
		if dialAddr != "" {
			// Dial loop: receive the leader's ship stream, reconnect with a
			// pause on drop, stop once promoted. Takeover fencing is
			// two-layer: rep.ShipDest refuses chunk writes the moment
			// Promote begins — so even a still-alive ex-leader's stream
			// cannot land a byte under the new leader's own log — and the
			// fence hook severs the live connection so this loop notices
			// promotion rather than draining a stream whose writes are all
			// refused.
			var connMu sync.Mutex
			var shipConn net.Conn
			rep.SetFenceHook(func() {
				connMu.Lock()
				defer connMu.Unlock()
				if shipConn != nil {
					shipConn.Close()
				}
			})
			go func() {
				for {
					conn, dialErr := net.Dial("tcp", dialAddr)
					if dialErr == nil {
						connMu.Lock()
						shipConn = conn
						connMu.Unlock()
						dialErr = apan.FollowWALShip(conn, rep.ShipDest(), rep.ObserveLeaderIndex)
						connMu.Lock()
						shipConn = nil
						connMu.Unlock()
						conn.Close()
					}
					if rep.Role() != "follower" {
						return
					}
					select {
					case <-done:
						return
					case <-time.After(*shipEvery):
					}
					if rep.Role() != "follower" {
						return
					}
					if dialErr != nil {
						log.Printf("follower: ship stream from %s: %v (reconnecting)", dialAddr, dialErr)
					}
				}
			}()
		}
		// Replay loop: apply whatever the shipped log has accumulated, at
		// the ship cadence. Promotion ends it.
		go func() {
			tick := time.NewTicker(*shipEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
				}
				n, pollErr := rep.PollOnce()
				if errors.Is(pollErr, apan.ErrReplicaPromoted) {
					if shipLn != nil {
						// The promoted leader unparks -ship-addr and feeds
						// standbys from the log it now appends to; rep.Cursor
						// reads the attached log's NextIndex for heartbeats.
						go func() {
							if err := apan.ServeWALShip(shipLn, followDir, rep.Cursor, *shipEvery, done); err != nil {
								log.Printf("wal ship server: %v", err)
							}
						}()
						log.Printf("promoted: shipping segments to followers on %s (interval %v)", shipLn.Addr(), *shipEvery)
					}
					return
				}
				if pollErr != nil {
					log.Printf("follower: replay: %v", pollErr)
					continue
				}
				if n > 0 {
					log.Printf("follower: replayed %d events (cursor %d, lag %d)", n, rep.Cursor(), rep.LagEvents())
				}
			}
		}()
		log.Printf("follower: replaying shipped WAL from %s (cursor %d); promote via POST /v1/admin/promote", followDir, rep.Cursor())
	}

	// Durability: open the WAL, recover past the checkpoint watermark, and
	// attach so every applied batch is logged at the serial apply point.
	var walLog *apan.WAL
	if *walDir != "" && rep == nil {
		walLog, err = apan.OpenWAL(apan.WALOptions{Dir: *walDir, Policy: policy, SyncEvery: *fsyncEvery})
		if err != nil {
			log.Fatal(err)
		}
		if *loadPath != "" {
			// Crash recovery: the checkpoint restored state up to its
			// watermark; re-apply every logged batch past it from the
			// embeddings its record carries. The WAL's open already
			// truncated any torn tail a mid-write crash left behind.
			replayed, err := model.RecoverWAL(walLog)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("wal: replayed %d events from %s (%d graph events now)", replayed, *walDir, model.GraphEvents())
		} else {
			// Fresh start: the training warm-up predates the log, so write
			// the base checkpoint recovery will replay from before any
			// batch is logged.
			wm, err := model.Checkpoint(*ckptPath)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("wal: base checkpoint %s written (watermark %d)", *ckptPath, wm)
		}
		if err := model.AttachWAL(walLog); err != nil {
			log.Fatal(err)
		}
		log.Printf("wal: logging applied batches to %s (fsync=%s)", *walDir, policy)
	}

	var trainer *apan.OnlineTrainer
	popts := []apan.PipelineOption{apan.WithQueueCap(*queueCap)}
	if *tenants != "" || *tenantRate > 0 {
		cfgs, err := parseTenantSpecs(*tenants)
		if err != nil {
			log.Fatal(err)
		}
		if len(cfgs) > 0 {
			popts = append(popts, apan.WithTenants(cfgs...))
		}
		if *tenantRate > 0 {
			popts = append(popts, apan.WithTenantDefaults(apan.TenantConfig{Rate: *tenantRate}))
		}
		log.Printf("multi-tenant admission: %d registered tenants, walk-in rate %g ev/s", len(cfgs), *tenantRate)
	}
	if *evictMax > 0 {
		log.Printf("cold-state eviction: budget %d warm nodes", *evictMax)
	}
	if *trainOnline {
		trainer, err = apan.NewOnlineTrainer(model, apan.TrainerConfig{
			LR:        float32(*trainLR),
			StepEvery: *trainStep,
			Seed:      1,
		})
		if err != nil {
			log.Fatal(err)
		}
		if *trainFrozen {
			trainer.Freeze()
		}
		trainer.Start()
		popts = append(popts, apan.WithOnlineTrainer(trainer))
		log.Printf("online training enabled (frozen=%v); control via POST /v1/admin/train/{freeze,resume}", *trainFrozen)
	}

	// Leader side of replication: stream the WAL directory to any follower
	// that connects, with lag heartbeats carrying the log's next index. (A
	// follower's parked listener is served by the replay loop above once
	// promotion makes this process the leader.)
	if shipLn != nil && rep == nil {
		go func() {
			if err := apan.ServeWALShip(shipLn, *walDir, walLog.NextIndex, *shipEvery, done); err != nil {
				log.Printf("wal ship server: %v", err)
			}
		}()
		log.Printf("wal: shipping segments to followers on %s (interval %v)", shipLn.Addr(), *shipEvery)
	}

	health := serve.NewHealth(3)
	sopts := apan.ServerOptions{
		MaxNodes: *maxNodes,
		Trainer:  trainer,
		Health:   health,
	}
	if rep != nil {
		sopts.Replication = rep
		sopts.MaxLagEvents = *maxLagEvent
	}
	pipe := apan.StartPipeline(model, popts...)
	srv := apan.NewServer(pipe, sopts)

	if *ckptEvery > 0 {
		// Periodic background checkpoints: Checkpoint is atomic (temp +
		// fsync + rename) and cuts on a batch boundary under the model's
		// writer lock alone, so serving keeps scoring while the file is
		// written. With a WAL the returned watermark lets the log drop
		// segments the checkpoint has made redundant. Failures get bounded
		// retries with jittered backoff (a transiently full or slow disk
		// shouldn't cost a whole interval of replay debt); exhausting them
		// feeds the consecutive-failure count /v1/readyz degrades on.
		go func() {
			// Jitter from the process seed, not the clock: two processes
			// started with the same -seed retry on the same schedule, so
			// seeded runs (and their logs) are reproducible.
			rng := rand.New(rand.NewSource(*seed))
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
				}
				start := time.Now()
				var wm uint64
				var err error
				for attempt := 1; ; attempt++ {
					wm, err = model.Checkpoint(*ckptPath)
					if err == nil || attempt == 3 {
						break
					}
					backoff := time.Duration(attempt) * (250*time.Millisecond + time.Duration(rng.Int63n(int64(250*time.Millisecond))))
					log.Printf("checkpoint attempt %d: %v (retrying in %v)", attempt, err, backoff.Round(time.Millisecond))
					select {
					case <-done:
						return
					case <-time.After(backoff):
					}
				}
				if err != nil {
					fails := health.CheckpointFailed()
					log.Printf("checkpoint: %v (attempts exhausted; %d consecutive failures)", err, fails)
					continue
				}
				health.CheckpointSucceeded()
				log.Printf("checkpoint %s written in %v (param version %d, watermark %d graph events)",
					*ckptPath, time.Since(start).Round(time.Millisecond), model.ParamVersion(), wm)
				if walLog != nil {
					if removed, err := walLog.TruncateBefore(wm); err != nil {
						log.Printf("wal truncate: %v", err)
					} else if removed > 0 {
						log.Printf("wal: dropped %d segments behind watermark %d", removed, wm)
					}
				}
			}
		}()
		log.Printf("checkpointing to %s every %v", *ckptPath, *ckptEvery)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	var handler http.Handler = srv
	if *pprofOn {
		// The API keeps its own mux; pprof rides alongside so profiling the
		// serving hot path (alloc/heap profiles should be near-flat after
		// warm-up — the workspaces pool) needs no second port.
		mux := http.NewServeMux()
		mux.Handle("/", srv)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled on /debug/pprof/")
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("serving v1 HTTP API on http://%s (db-latency=%v on async link)", ln.Addr(), *dbLatency)

	// shutdown is the one exit path, demo or signal: stop intake, drain the
	// propagation pipeline, stop the trainer, then seal durability — sync
	// the WAL, write a final checkpoint so the next start needs no replay,
	// and close the log.
	shutdown := func() {
		close(done)
		if shipLn != nil {
			shipLn.Close() // a parked follower listener; no-op once ServeWALShip owns it
		}
		hs.Close()
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := pipe.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if trainer != nil {
			trainer.Stop()
		}
		sealLog := walLog
		if rep != nil {
			// A promoted follower reopened the shipped directory as its own
			// log at takeover; seal that one. Unpromoted followers have no
			// attached log — their durability is the leader's.
			sealLog = rep.Log()
		}
		if sealLog != nil {
			model.DetachWAL()
			if err := sealLog.Sync(); err != nil {
				log.Printf("wal sync: %v", err)
			}
			wm, err := model.Checkpoint(*ckptPath)
			if err != nil {
				log.Printf("final checkpoint: %v", err)
			} else {
				log.Printf("final checkpoint %s written (watermark %d)", *ckptPath, wm)
			}
			if err := sealLog.Close(); err != nil {
				log.Printf("wal close: %v", err)
			}
		}
	}

	if *demo {
		runDemo("http://"+ln.Addr().String(), split.Test, *demoBatch, pipe)
		shutdown()
		return
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-sigCtx.Done()
	stop() // restore default handling: a second signal kills immediately
	log.Printf("shutdown signal received; draining pipeline and sealing durability…")
	shutdown()
}

// runDemo replays the test stream through the HTTP batch endpoint and
// reports what the online decision system would observe. It speaks the
// wire types internal/serve exports, so client and server cannot drift.
// parseTenantSpecs parses the -tenants flag: comma-separated
// id[:weight[:rate[:lane]]] specs, e.g. "acme:3:500:0,trial:1:50:1".
// Omitted fields take the TenantConfig zero-value defaults (weight 1,
// unlimited rate, lane 0).
func parseTenantSpecs(s string) ([]apan.TenantConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var cfgs []apan.TenantConfig
	for _, spec := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(spec), ":")
		if parts[0] == "" {
			return nil, fmt.Errorf("-tenants: empty tenant id in %q", spec)
		}
		tc := apan.TenantConfig{ID: parts[0]}
		var err error
		if len(parts) > 1 && parts[1] != "" {
			if tc.Weight, err = strconv.Atoi(parts[1]); err != nil {
				return nil, fmt.Errorf("-tenants: bad weight in %q: %v", spec, err)
			}
		}
		if len(parts) > 2 && parts[2] != "" {
			if tc.Rate, err = strconv.ParseFloat(parts[2], 64); err != nil {
				return nil, fmt.Errorf("-tenants: bad rate in %q: %v", spec, err)
			}
		}
		if len(parts) > 3 && parts[3] != "" {
			if tc.Lane, err = strconv.Atoi(parts[3]); err != nil {
				return nil, fmt.Errorf("-tenants: bad lane in %q: %v", spec, err)
			}
		}
		if len(parts) > 4 {
			return nil, fmt.Errorf("-tenants: too many fields in %q (want id[:weight[:rate[:lane]]])", spec)
		}
		cfgs = append(cfgs, tc)
	}
	return cfgs, nil
}

func runDemo(base string, events []apan.Event, batch int, pipe *apan.Pipeline) {
	n := len(events)
	if n > 2000 {
		n = 2000
	}
	if batch < 1 {
		batch = 1
	}
	client := &http.Client{Timeout: 30 * time.Second}

	start := time.Now()
	var worst time.Duration
	var scored int
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		req := serve.ScoreRequest{Events: make([]serve.EventJSON, hi-lo)}
		for i, ev := range events[lo:hi] {
			req.Events[i] = serve.EventJSON{Src: ev.Src, Dst: ev.Dst, Time: ev.Time, Feat: ev.Feat}
		}
		body, err := json.Marshal(req)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := client.Post(base+"/v1/score", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var sr serve.ScoreResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("server returned %d", resp.StatusCode)
		}
		scored += len(sr.Scores)
		if d := time.Duration(sr.SyncMicros) * time.Microsecond; d > worst {
			worst = d
		}
	}
	elapsed := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pipe.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	fmt.Printf("demo: %d events in %v (%.0f ev/s) over POST /v1/score batches of %d\n",
		scored, elapsed.Round(time.Millisecond), float64(scored)/elapsed.Seconds(), batch)
	fmt.Printf("sync latency: mean %v p99 %v worst %v\n",
		st.Pipeline.SyncMean, st.Pipeline.SyncP99, worst)
	fmt.Printf("async propagation: mean %v, max queue depth %d\n",
		st.Pipeline.AsyncMean, st.Pipeline.MaxQueueDepth)
}
