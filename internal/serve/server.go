// Package serve exposes APAN's serving pipeline as a versioned HTTP/JSON
// API — the deployment surface of the paper's Fig. 2b architecture. The
// request path runs only the synchronous link; graph writes and mail
// propagation drain asynchronously behind the pipeline's bounded queue.
//
// v1 endpoints:
//
//	POST /v1/score                score one event or a batch (micro-batched)
//	GET  /v1/stats                pipeline + batcher + trainer + replication instrumentation
//	GET  /v1/livez                liveness: 200 while the process serves HTTP at all
//	GET  /v1/readyz               readiness: 503 + reasons when serving is degraded
//	GET  /v1/healthz              legacy combined health (always 200; status ok|degraded)
//	GET  /v1/explain/{node}       attention over the node's current mailbox
//	POST /v1/admin/train/freeze   pause online training (when a trainer is wired)
//	POST /v1/admin/train/resume   resume online training
//	POST /v1/admin/promote        promote a warm-standby follower to leader
//
// Liveness and readiness are split deliberately: a follower replaying
// shipped WAL segments, or a leader whose WAL latched an fsync error, is
// alive (restarting it would only lose warm state) but may be unready —
// lag beyond Options.MaxLagEvents, a latched WAL error, or repeated
// checkpoint failures all flip /v1/readyz to 503 with machine-readable
// reasons while /v1/livez stays 200.
//
// With Options.Replication wired and the replica in the follower role,
// /v1/score serves read-only from the lag-stamped replayed state
// (Pipeline.ScoreOnly): nothing is applied, node admission is disabled,
// and every response carries the role and the current lag so callers can
// judge staleness.
//
// Single-event POSTs are coalesced server-side: a request that finds a flush
// lane free is scored at once, and requests that arrive while every lane is
// busy ride one Score call when a lane frees, so under load the
// synchronous link runs toward the paper's batch-200 sweet spot even with
// one-event-per-request clients. Events naming previously unseen node
// IDs are admitted dynamically (the model's stores grow at runtime)
// up to Options.MaxNodes. See docs/serving.md for schemas and semantics.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"apan/internal/async"
	"apan/internal/core"
	"apan/internal/mailbox"
	"apan/internal/replica"
	"apan/internal/tgraph"
	"apan/internal/train"
	"apan/internal/wal"
)

// Options configures a Server.
type Options struct {
	// MaxNodes bounds dynamic node admission: events naming node IDs in
	// [NumNodes, MaxNodes) grow the model's node space instead of being
	// rejected; IDs ≥ MaxNodes get a structured 400 (node_limit_exceeded),
	// since each admitted node costs state+mailbox memory. Zero means 1<<20;
	// negative disables admission entirely (the pre-v1.1 strict 400
	// behavior).
	MaxNodes int
	// Trainer, when non-nil, is the online trainer attached to the served
	// pipeline (async.WithOnlineTrainer): /v1/stats reports its health and
	// the admin endpoints control it. Nil disables the training surface
	// (admin endpoints answer 404 no_trainer).
	//
	// Deliberately the concrete type, unlike async.Trainer (which only
	// needs Observe): the stats handler serializes typed train.Stats, and
	// a concrete pointer keeps the nil check honest — an interface field
	// here would turn a nil *OnlineTrainer into a non-nil interface and
	// panic on first admin call.
	Trainer *train.OnlineTrainer
	// Replication, when non-nil, wires a warm-standby replica into the
	// serving surface: /v1/score routes through the read-only path while the
	// replica is a follower, /v1/stats and /v1/readyz report role and lag,
	// and POST /v1/admin/promote triggers takeover.
	Replication Replication
	// MaxLagEvents bounds acceptable follower staleness: a follower whose
	// ship-heartbeat lag exceeds this flips /v1/readyz to degraded. Zero
	// means 10000; negative disables the lag gate.
	MaxLagEvents int64
	// Health, when non-nil, feeds operator-maintained degradation (periodic
	// checkpoint failures) into /v1/readyz.
	Health *Health
}

// Server is the v1 HTTP serving surface over an async.Pipeline. Create it
// with New, mount it anywhere (it implements http.Handler), and Close it
// before shutting the pipeline down: Close waits for every in-flight
// handler — score, admin and explain alike — so a subsequent
// Pipeline.Shutdown can never race a request still using the pipeline.
type Server struct {
	pipe        *async.Pipeline
	batcher     *Batcher
	trainer     *train.OnlineTrainer
	replication Replication
	maxLag      int64
	health      *Health
	mux         *http.ServeMux
	start       time.Time
	maxNodes    int

	// closeMu/closed gate new requests during shutdown; handlerWG counts
	// requests in flight so Close can wait them out.
	closeMu   sync.RWMutex
	closed    bool
	handlerWG sync.WaitGroup
}

// New builds a Server over a started pipeline.
func New(pipe *async.Pipeline, opts Options) *Server {
	maxNodes := opts.MaxNodes
	switch {
	case maxNodes == 0:
		maxNodes = 1 << 20
	case maxNodes < 0:
		maxNodes = -1 // strict: limit tracks the live node space (validate)
	case maxNodes > math.MaxInt32:
		maxNodes = math.MaxInt32 // node IDs are int32 on the wire
	}
	maxLag := opts.MaxLagEvents
	if maxLag == 0 {
		maxLag = 10000
	}
	s := &Server{
		pipe:        pipe,
		batcher:     NewBatcher(pipe),
		trainer:     opts.Trainer,
		replication: opts.Replication,
		maxLag:      maxLag,
		health:      opts.Health,
		mux:         http.NewServeMux(),
		start:       time.Now(),
		maxNodes:    maxNodes,
	}
	s.mux.HandleFunc("POST /v1/score", s.handleScore)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/livez", s.handleLivez)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/explain/{node}", s.handleExplain)
	s.mux.HandleFunc("POST /v1/admin/train/freeze", s.handleTrainFreeze)
	s.mux.HandleFunc("POST /v1/admin/train/resume", s.handleTrainResume)
	s.mux.HandleFunc("POST /v1/admin/promote", s.handlePromote)
	return s
}

// ServeHTTP dispatches a request, registering it with the in-flight
// accounting Close waits on. Requests arriving after Close starts get a
// structured 503.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		writeError(w, http.StatusServiceUnavailable, "server_closing", "the server is shutting down")
		return
	}
	s.handlerWG.Add(1)
	s.closeMu.RUnlock()
	defer s.handlerWG.Done()
	s.mux.ServeHTTP(w, r)
}

// Close stops accepting requests, flushes and stops the micro-batcher, and
// waits for every in-flight handler to return. After Close the caller may
// safely Shutdown the pipeline: no handler still references it. The
// pipeline itself is owned by the caller and left running; an attached
// trainer is likewise left to the caller to Stop.
func (s *Server) Close() {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	// Both calls are safe and blocking under concurrent Close: a repeat
	// batcher.Close waits for the first to finish, and every Close waits
	// out the in-flight handlers — so whichever caller returns first, the
	// pipeline is no longer referenced by any handler.
	s.batcher.Close()
	s.handlerWG.Wait()
}

// EventJSON is the wire form of one temporal interaction, as clients encode
// it (the server parses request bodies with its own decoder, decode.go).
type EventJSON struct {
	Src  int32     `json:"src"`
	Dst  int32     `json:"dst"`
	Time float64   `json:"time"`
	Feat []float32 `json:"feat"`
}

// ScoreRequest is the POST /v1/score body: either the single-event fields
// inline, or a batch under "events" (mutually exclusive). Tenant attributes
// the request to a tenant when the pipeline runs multi-tenant admission; it
// overrides the X-Tenant header, and both default to the pipeline's default
// tenant when absent.
type ScoreRequest struct {
	EventJSON
	Events []EventJSON `json:"events"`
	Tenant string      `json:"tenant,omitempty"`
}

// ScoreResponse answers POST /v1/score. Score is set for single-event
// requests, Scores for batches; both report the synchronous-link latency
// the caller's decision system observed and the propagation queue depth.
type ScoreResponse struct {
	Score      *float32  `json:"score,omitempty"`
	Scores     []float32 `json:"scores,omitempty"`
	Count      int       `json:"count"`
	SyncMicros int64     `json:"sync_us"`
	BatchSize  int       `json:"batch_size"`
	QueueDepth int       `json:"queue_depth"`
	// Role and LagEvents stamp follower-served responses: the score came
	// from replayed state LagEvents behind the leader per the last ship
	// heartbeat. Absent on leader/standalone responses.
	Role      string `json:"role,omitempty"`
	LagEvents int64  `json:"lag_events,omitempty"`
	// Tenant echoes the tenant the request was attributed to; present only
	// when the pipeline runs multi-tenant admission.
	Tenant string `json:"tenant,omitempty"`
}

// ErrorBody is the structured error envelope of every non-2xx response.
// Tenant is set on tenant-attributed rejections (429s) so a multi-tenant
// client can tell whose budget was exhausted.
type ErrorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Tenant  string `json:"tenant,omitempty"`
	} `json:"error"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	Pipeline async.Stats  `json:"pipeline"`
	Batcher  BatcherStats `json:"batcher"`
	// ParamVersion is the served model's currently published parameter
	// version; it advances on every hot swap (online trainer publish,
	// checkpoint load).
	ParamVersion uint64 `json:"param_version"`
	// Training reports online-trainer health; absent when no trainer is
	// attached.
	Training *train.Stats `json:"training,omitempty"`
	// WAL reports write-ahead-log health — indices, segment count, flush and
	// fsync counters, and any latched I/O error (serving degrades to
	// best-effort durability rather than failing applies; the operator sees
	// it here). Absent when the model serves without a WAL.
	WAL *wal.Stats `json:"wal,omitempty"`
	// Tenants reports per-tenant admission accounting — submitted, applied,
	// dropped, rate-limited, queue depths, weight and lane — keyed by tenant
	// id. Absent when the pipeline runs without multi-tenant admission.
	Tenants map[string]async.TenantStats `json:"tenants,omitempty"`
	// Eviction reports the cold-state evictor's budget, warm-set size and
	// eviction/re-admission counters. Absent when eviction is disabled.
	Eviction *core.EvictionStats `json:"eviction,omitempty"`
	// Mailbox reports the mail memory held: mailboxes with mail, live and
	// free mail blocks, and their bytes — what an eviction budget bought.
	Mailbox mailbox.Occupancy `json:"mailbox"`
	// Role is "leader" or "follower" when replication is wired (absent on
	// standalone servers); FollowerLagEvents is the ship-heartbeat lag and
	// WALLatchedError surfaces the log's latched I/O error string at the top
	// level, so monitors need not dig into the WAL block.
	Role              string  `json:"role,omitempty"`
	FollowerLagEvents int64   `json:"follower_lag_events,omitempty"`
	WALLatchedError   string  `json:"wal_latched_error,omitempty"`
	UptimeSeconds     float64 `json:"uptime_s"`
}

// TrainAdminResponse answers the POST /v1/admin/train/{freeze,resume}
// endpoints.
type TrainAdminResponse struct {
	Frozen       bool   `json:"frozen"`
	ParamVersion uint64 `json:"param_version"`
}

// HealthResponse answers GET /v1/healthz (legacy combined health) and
// GET /v1/livez; Reasons is populated only by /v1/readyz and a degraded
// /v1/healthz.
type HealthResponse struct {
	Status        string   `json:"status"`
	Reasons       []string `json:"reasons,omitempty"`
	QueueDepth    int      `json:"queue_depth"`
	UptimeSeconds float64  `json:"uptime_s"`
}

// PromoteResponse answers POST /v1/admin/promote.
type PromoteResponse struct {
	Role string `json:"role"`
}

// ExplainResponse answers GET /v1/explain/{node}.
type ExplainResponse struct {
	Node        int32       `json:"node"`
	Time        float64     `json:"time"`
	MailWeights []float32   `json:"mail_weights"`
	PerHead     [][]float32 `json:"per_head"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	var body ErrorBody
	body.Error.Code = code
	body.Error.Message = msg
	writeJSON(w, status, body)
}

// validate rejects events that would corrupt or crash the model before they
// reach the pipeline: negative or over-limit node IDs and wrong feature
// dimensions. IDs in [NumNodes, maxNodes) are valid — admit (below) grows
// the model to cover them before submission (dynamic node admission).
// strict confines IDs to the live node space instead: follower-served
// scores must not grow the model, whose node space is replication's alone
// to advance.
func (s *Server) validate(events []tgraph.Event, strict bool) (code, msg string) {
	limit := int32(s.maxNodes)
	if strict || s.maxNodes < 0 {
		// Strict mode: no admission, but the node space can still grow
		// legitimately (LoadCheckpoint of a grown checkpoint), so consult
		// it live rather than freezing the construction-time value.
		limit = int32(s.pipe.NumNodes())
	}
	dim := s.pipe.EdgeDim()
	for i := range events {
		ev := &events[i]
		if ev.Src < 0 || ev.Dst < 0 {
			return "node_out_of_range", fmt.Sprintf("event %d: node ids must be non-negative (src %d, dst %d)", i, ev.Src, ev.Dst)
		}
		if ev.Src >= limit || ev.Dst >= limit {
			return "node_limit_exceeded", fmt.Sprintf("event %d: node id %d exceeds the admission limit %d", i, max(ev.Src, ev.Dst), limit)
		}
		if len(ev.Feat) != dim {
			return "bad_feat_dim", fmt.Sprintf("event %d: feat dim %d, want %d", i, len(ev.Feat), dim)
		}
	}
	return "", ""
}

// admit grows the model's node space to cover every endpoint of the batch.
// Called after validate, so IDs are known to be within the admission limit.
// Growth is amortized: since every admission briefly stops the world, the
// space grows by at least half again (capped at the limit), so a stream of
// monotonically increasing IDs triggers O(log n) growths, not one per
// request.
func (s *Server) admit(events []tgraph.Event) {
	var maxID int32 = -1
	for _, ev := range events {
		if ev.Src > maxID {
			maxID = ev.Src
		}
		if ev.Dst > maxID {
			maxID = ev.Dst
		}
	}
	n := s.pipe.NumNodes()
	if int(maxID) < n {
		return
	}
	target := int(maxID) + 1
	if headroom := n + n/2; headroom > target {
		target = headroom
	}
	if s.maxNodes >= 0 && target > s.maxNodes {
		target = s.maxNodes
	}
	s.pipe.EnsureNodes(target)
}

func submitErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, async.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "pipeline_closed", err.Error())
	case errors.Is(err, async.ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "queue_full", err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or timed out — not a server fault, so keep
		// it out of the 5xx budget. (The write usually lands nowhere.)
		writeError(w, http.StatusRequestTimeout, "request_cancelled", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "submit_failed", err.Error())
	}
}

// submitTenantErr is submitErr for tenant-attributed submissions: the two
// per-tenant rejections — a spent rate bucket and a full tenant queue — are
// that tenant's problem, not the server's, so they answer 429 with the
// tenant id in the error envelope; everything else keeps the shared mapping.
func submitTenantErr(w http.ResponseWriter, tenant string, err error) {
	var code string
	switch {
	case errors.Is(err, async.ErrRateLimited):
		code = "rate_limited"
	case errors.Is(err, async.ErrQueueFull):
		code = "tenant_queue_full"
	default:
		submitErr(w, err)
		return
	}
	var body ErrorBody
	body.Error.Code = code
	body.Error.Message = err.Error()
	body.Error.Tenant = tenant
	writeJSON(w, http.StatusTooManyRequests, body)
}

// tenantFor resolves the tenant a score request is attributed to: the JSON
// "tenant" field wins, then the X-Tenant header, then the pipeline's default
// tenant. Only meaningful when the pipeline runs multi-tenant admission.
func tenantFor(r *http.Request, bodyTenant string) string {
	if bodyTenant != "" {
		return bodyTenant
	}
	if h := r.Header.Get("X-Tenant"); h != "" {
		return h
	}
	return async.DefaultTenant
}

// bodyPool recycles request-body buffers. Decoding keeps no reference into
// the body (numbers are parsed, the tenant is copied), so a buffer goes back
// as soon as its request is decoded.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readScore reads and decodes a /v1/score body.
func (s *Server) readScore(w http.ResponseWriter, r *http.Request) (scoreRequest, *decodeError) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	if n := r.ContentLength; n > 0 {
		// One allocation for a body of known length up to maxPresizeBytes.
		// Past that the buffer grows as bytes arrive, so a client that
		// declares a large body and stalls pins no more than this. ReadFrom
		// wants MinRead spare bytes to find EOF without growing.
		buf.Grow(int(min(n, maxPresizeBytes)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return scoreRequest{}, &decodeError{code: "bad_json", msg: err.Error()}
	}
	return decodeScore(buf.Bytes(), s.pipe.EdgeDim())
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	req, derr := s.readScore(w, r)
	if derr != nil {
		status := http.StatusBadRequest
		if derr.code == "batch_too_large" {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, derr.code, derr.msg)
		return
	}
	if req.batch { // an explicit "events" array, even empty
		if req.inline {
			writeError(w, http.StatusBadRequest, "ambiguous_body",
				"provide either inline event fields or \"events\", not both")
			return
		}
		if len(req.events) == 0 {
			writeError(w, http.StatusBadRequest, "empty_batch", "\"events\" must contain at least one event")
			return
		}
	}
	events := req.events
	follower := s.followerRole()
	if code, msg := s.validate(events, follower); code != "" {
		writeError(w, http.StatusBadRequest, code, msg)
		return
	}

	resp := ScoreResponse{Count: len(events), BatchSize: len(events)}
	var (
		scores []float32
		lat    time.Duration
		err    error
	)
	switch {
	case follower:
		// Read-only: score from the replayed state, apply nothing, stamp the
		// staleness the caller is reading. (Single events too: the batcher's
		// coalesced flushes apply, ScoreOnly must not.)
		scores, lat, err = s.pipe.ScoreOnly(events)
		resp.Role, resp.LagEvents = "follower", s.replication.LagEvents()
	case s.pipe.Tenancy():
		// Tenant-attributed, non-blocking: a spent rate bucket or a full
		// tenant queue sheds the request with a structured 429 instead of
		// parking the handler — one tenant's burst must not hold handler
		// goroutines hostage while others wait. Single events skip the
		// micro-batcher: a coalesced flush mixes events from many requests
		// into one submission, which would attribute every rider's cost to
		// whichever tenant flushed.
		tenant := tenantFor(r, req.tenant)
		s.admit(events)
		if scores, lat, err = s.pipe.TrySubmitTenant(tenant, events); err != nil {
			submitTenantErr(w, tenant, err)
			return
		}
		resp.Tenant = tenant
	case req.batch:
		s.admit(events)
		scores, lat, err = s.pipe.Submit(r.Context(), events)
	default:
		// A single event rides the micro-batcher.
		s.admit(events)
		var score float32
		score, lat, resp.BatchSize, err = s.batcher.Score(r.Context(), events[0])
		scores = []float32{score}
	}
	if err != nil {
		submitErr(w, err)
		return
	}
	if req.batch {
		resp.Scores = scores
	} else {
		resp.Score = &scores[0]
	}
	resp.SyncMicros = lat.Microseconds()
	resp.QueueDepth = s.pipe.QueueDepth()
	writeJSON(w, http.StatusOK, resp)
}

// followerRole reports whether score traffic must take the read-only path.
func (s *Server) followerRole() bool {
	return s.replication != nil && s.replication.Role() == "follower"
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		Pipeline:      s.pipe.Stats(),
		Batcher:       s.batcher.Stats(),
		ParamVersion:  s.pipe.ParamVersion(),
		Tenants:       s.pipe.TenantStats(),
		Eviction:      s.pipe.EvictionStats(),
		Mailbox:       s.pipe.MailboxOccupancy(),
		WAL:           s.pipe.WALStats(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.trainer != nil {
		st := s.trainer.Stats()
		resp.Training = &st
	}
	if resp.WAL != nil {
		resp.WALLatchedError = resp.WAL.Err
	}
	if s.replication != nil {
		resp.Role = s.replication.Role()
		resp.FollowerLagEvents = s.replication.LagEvents()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrainFreeze(w http.ResponseWriter, _ *http.Request) {
	if s.trainer == nil {
		writeError(w, http.StatusNotFound, "no_trainer", "no online trainer is attached to this server")
		return
	}
	s.trainer.Freeze()
	writeJSON(w, http.StatusOK, TrainAdminResponse{Frozen: true, ParamVersion: s.pipe.ParamVersion()})
}

func (s *Server) handleTrainResume(w http.ResponseWriter, _ *http.Request) {
	if s.trainer == nil {
		writeError(w, http.StatusNotFound, "no_trainer", "no online trainer is attached to this server")
		return
	}
	s.trainer.Resume()
	writeJSON(w, http.StatusOK, TrainAdminResponse{Frozen: false, ParamVersion: s.pipe.ParamVersion()})
}

// degradedReasons collects every condition that makes serving degraded:
// a latched WAL I/O error (durability is best-effort until the operator
// intervenes), follower lag beyond the configured bound, and repeated
// periodic-checkpoint failures.
func (s *Server) degradedReasons() []string {
	var reasons []string
	if ws := s.pipe.WALStats(); ws != nil && ws.Err != "" {
		reasons = append(reasons, "wal_latched_error: "+ws.Err)
	}
	if s.replication != nil && s.replication.Role() == "follower" && s.maxLag > 0 {
		if lag := s.replication.LagEvents(); lag > s.maxLag {
			reasons = append(reasons, fmt.Sprintf("follower_lag: %d events behind the leader (bound %d)", lag, s.maxLag))
		}
	}
	if s.health != nil && s.health.Degraded() {
		reasons = append(reasons, fmt.Sprintf("checkpoint_failures: %d consecutive periodic checkpoints failed", s.health.CheckpointFailures()))
	}
	return reasons
}

// handleLivez is pure liveness: reachable means alive. Degradation — lag,
// latched WAL errors, checkpoint failures — belongs to readiness; killing
// the process over any of them would only destroy warm state.
func (s *Server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		QueueDepth:    s.pipe.QueueDepth(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// handleReadyz answers 503 with machine-readable reasons while serving is
// degraded, 200 otherwise — the signal a load balancer or failover
// controller keys on.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		QueueDepth:    s.pipe.QueueDepth(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if reasons := s.degradedReasons(); len(reasons) > 0 {
		resp.Status = "degraded"
		resp.Reasons = reasons
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is the legacy combined endpoint: always 200 (it predates
// the liveness/readiness split and existing probes treat non-200 as dead),
// with the readiness verdict in the body.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		QueueDepth:    s.pipe.QueueDepth(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if reasons := s.degradedReasons(); len(reasons) > 0 {
		resp.Status = "degraded"
		resp.Reasons = reasons
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePromote triggers follower→leader takeover. 404 when no replication
// is wired, 409 when already promoted (the fencing signal), 500 when the
// promotion itself fails (torn shipped log, replay error).
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	if s.replication == nil {
		writeError(w, http.StatusNotFound, "no_replication", "this server has no warm-standby replica wired")
		return
	}
	if err := s.replication.Promote(); err != nil {
		if errors.Is(err, replica.ErrAlreadyPromoted) {
			writeError(w, http.StatusConflict, "already_promoted", err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, "promote_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Role: s.replication.Role()})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("node"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_node", "node must be an integer")
		return
	}
	if id < 0 || id >= int64(s.pipe.NumNodes()) {
		writeError(w, http.StatusBadRequest, "node_out_of_range",
			fmt.Sprintf("node %d outside [0,%d)", id, s.pipe.NumNodes()))
		return
	}
	ex, ok := s.pipe.Explain(tgraph.NodeID(id))
	if !ok {
		writeError(w, http.StatusNotFound, "no_explanation",
			fmt.Sprintf("node %d has no mail to attend over", id))
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		Node:        ex.Node,
		Time:        ex.Time,
		MailWeights: ex.MailWeights,
		PerHead:     ex.PerHead,
	})
}
