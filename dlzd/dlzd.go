// Package dlzd is the multi-tenant relaxed-structure daemon: an HTTP/JSON
// front end that serves the repository's distributionally linearizable
// MultiQueue and MultiCounter to network clients — the "millions of users"
// direction of ROADMAP.md, with the paper's per-thread handle discipline
// mapped onto session leases (DESIGN.md §8).
//
// Each tenant namespace owns one dlz.MultiQueue and one dlz.MultiCounter
// (created on first use, bounded by Config.MaxTenants). Clients carry a
// session token; the daemon leases a handle pair per token and keeps it
// across requests, so the sticky d-choice sampler, the shard-affine home
// stripe and the batch buffers survive request boundaries exactly as they
// survive operation boundaries in-process — which is what preserves the
// paper's distributional argument under request traffic. Leases are flushed
// and retired on explicit session close or idle expiry (the janitor), riding
// the handle Close contract so an abandoned connection can never strand
// buffered elements.
//
// The wire batch API (enqueue-batch, delete-min-up-to, counter/add-batch)
// rides the zero-alloc AddBatch/DeleteMinUpTo fast path end-to-end: wire
// batches land in the leased handle's fixed buffers and publish in Batch-size
// lumps with one lock acquisition each. Backpressure is a bounded per-tenant
// in-flight budget (429 on overflow); per-tenant quotas are metered by a
// MultiCounter themselves. GET /metrics exports the publication-elision,
// spin-backoff and sampler-reroll counters the internals already maintain.
//
// Run it with cmd/dlzd; drive it with cmd/dlzd-load.
package dlzd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/dlz"
	"repro/internal/cpq"
	"repro/internal/fail"
	"repro/internal/wal"
)

// MaxWireBatch bounds the item count of a single wire request (enqueue
// items, dequeue max, counter deltas), keeping one request's handler time
// and response size bounded regardless of client behavior.
const MaxWireBatch = 4096

// Config configures New. The zero value of every optional field selects a
// serviceable default; Queues is the only field without one that matters
// (it defaults to 64).
type Config struct {
	// Queues is the initial m for each tenant's MultiQueue and MultiCounter
	// (default 64). For the paper's guarantees it should be a large constant
	// multiple of the expected concurrent session count per tenant.
	Queues int
	// MinQueues and MaxQueues bound each tenant's live shard count for
	// manual resizes (POST /v1/{tenant}/resize) and the AutoScale
	// controller. 0 pins the bound to Queues — both zero is the fixed-m
	// pre-elastic behavior. Must satisfy 1 <= MinQueues <= Queues <=
	// MaxQueues when set.
	MinQueues int
	MaxQueues int
	// AutoScale enables the per-tenant contention-driven resize controller
	// (dlz.AutoScale semantics): the janitor ticks each tenant queue's
	// controller once per sweep, and the tenant counter's shard count
	// tracks the queue's. nil leaves resizing under manual control.
	AutoScale *dlz.AutoScale
	// Backing selects the per-queue sequential structure (default binary;
	// cpq.BackingDAry is the fastest for the batched wire path).
	Backing cpq.Backing
	// Capacity is the per-queue preallocation hint (default 1024).
	Capacity int
	// Choices, Stickiness, Batch and Affinity configure the fast path of
	// every tenant structure, with the same semantics and defaults as
	// dlz.MultiQueueConfig / dlz.MultiCounterConfig.
	Choices    int
	Stickiness int
	Batch      int
	Affinity   float64
	// MaxTenants bounds the number of live namespaces (default 64); further
	// tenant names are rejected with 403.
	MaxTenants int
	// MaxInFlight bounds the number of requests concurrently inside one
	// tenant's handlers — the backpressure budget; overflow is rejected
	// with 429. 0 means unlimited.
	MaxInFlight int
	// QuotaOps caps the total operations (enqueued items + dequeued items +
	// counter deltas) a tenant may admit over its lifetime, metered by a
	// per-tenant quota MultiCounter; exhaustion is rejected with 429.
	// 0 means unlimited.
	QuotaOps uint64
	// IdleTimeout is the lease idle expiry: a session untouched for this
	// long is flushed and retired by the janitor (StartJanitor) or by an
	// explicit ExpireIdle sweep. 0 disables time-based expiry (leases then
	// live until session close or server Close).
	IdleTimeout time.Duration
	// RequestTimeout is the per-request deadline, propagated to the handlers
	// through the request context: a handler that cannot acquire its session
	// lease within the deadline answers 503 busy, an enqueue loop that
	// overruns it aborts with its partial count committed, and a dequeue loop
	// returns the elements drained so far as a truncated 200. 0 disables
	// per-request deadlines (handlers then block as long as the work takes,
	// the pre-hardening behavior).
	RequestTimeout time.Duration
	// ShedTarget enables adaptive load shedding (DESIGN.md §10): when a
	// tenant's EWMA of mutating-request latency exceeds this target, its shed
	// level escalates one step (up to 3), and level/4 of subsequent mutating
	// requests are rejected with 429 plus a Retry-After header of 2^(level−1)
	// seconds; the level steps back down once the EWMA falls below half the
	// target. 0 disables adaptive shedding, leaving MaxInFlight as the only
	// (static) backpressure.
	ShedTarget time.Duration
	// ShedHold is the minimum dwell between shed level changes, damping
	// oscillation (default 100ms).
	ShedHold time.Duration
	// Seed feeds the structure and handle seed sequence (default 1).
	Seed uint64
	// Durability enables the write-ahead journal + snapshot rung (DESIGN.md
	// §12): every acknowledged mutating request is journaled before its 200
	// and Recover rebuilds the tenant namespaces on boot. nil (the default)
	// keeps the daemon purely in-memory with zero added work on any path.
	Durability *Durability
}

// Server is the daemon: an http.Handler serving the wire API plus the
// lease-lifecycle entry points the binary and the tests drive directly.
// Create with New.
type Server struct {
	cfg Config

	mu      sync.RWMutex // guards tenants
	tenants map[string]*tenant

	seeds  atomic.Uint64
	closed atomic.Bool

	// Durability state (all quiescent without Config.Durability). ready
	// gates /v1 traffic: false from New until Recover completes on a
	// durable server, true from New otherwise. sweepMu serializes the
	// idle-expiry sweep against the snapshotter's capture; snapMu
	// serializes snapshotters against each other.
	walPtr          atomic.Pointer[wal.Log]
	ready           atomic.Bool
	sweepMu         sync.Mutex
	snapMu          sync.Mutex
	replay          wal.Progress // journal replay so far; final once ready
	recoveryNanos   atomic.Int64
	walAppendErrors atomic.Uint64
	snapshotsTaken  atomic.Uint64
}

// New returns a Server with cfg's zero values normalized to defaults. The
// relaxed-structure configuration is validated eagerly (panicking like the
// dlz constructors) so a misconfigured daemon fails at startup, not at first
// request.
func New(cfg Config) *Server {
	if cfg.Queues <= 0 {
		cfg.Queues = 64
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Choices < 0 {
		panic("dlzd: Config.Choices must be >= 0")
	}
	minQ, maxQ := cfg.MinQueues, cfg.MaxQueues
	if minQ == 0 {
		minQ = cfg.Queues
	}
	if maxQ == 0 {
		maxQ = cfg.Queues
	}
	if minQ < 1 || minQ > cfg.Queues || cfg.Queues > maxQ {
		panic("dlzd: Config needs 1 <= MinQueues <= Queues <= MaxQueues")
	}
	if cfg.ShedTarget > 0 && cfg.ShedHold <= 0 {
		cfg.ShedHold = 100 * time.Millisecond
	}
	if !(cfg.Affinity >= 0 && cfg.Affinity <= 1) { // rejects NaN too
		panic("dlzd: Config.Affinity must be in [0, 1]")
	}
	if d := cfg.Durability; d != nil {
		if d.Dir == "" {
			panic("dlzd: Config.Durability.Dir is required")
		}
		dd := *d // normalize a copy so the caller's struct is not mutated
		if dd.SnapshotBytes == 0 {
			dd.SnapshotBytes = 64 << 20
		}
		cfg.Durability = &dd
	}
	s := &Server{cfg: cfg, tenants: map[string]*tenant{}}
	s.seeds.Store(cfg.Seed)
	// A durable server is born not-ready: Recover must replay the journal
	// before /v1 traffic is admitted.
	s.ready.Store(cfg.Durability == nil)
	return s
}

// nextSeed returns the next handle/structure seed. Seeds are distinct, which
// is all the per-goroutine generators require.
func (s *Server) nextSeed() uint64 { return s.seeds.Add(1) }

// Config returns the server's normalized configuration.
func (s *Server) Config() Config { return s.cfg }

// tenant returns the named tenant, creating it on first use; ok is false
// when the tenant does not exist and the MaxTenants budget refuses a new
// one.
func (s *Server) tenant(name string) (*tenant, bool) {
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if ok {
		return t, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok = s.tenants[name]; ok {
		return t, true
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, false
	}
	t = newTenant(name, s)
	s.tenants[name] = t
	return t, true
}

// tenantSnapshot returns the live tenants (for sweeps and metrics).
func (s *Server) tenantSnapshot() []*tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	return ts
}

// ExpireIdle flushes and retires every lease across all tenants whose last
// use is before cutoff, returning the number expired. The janitor calls it
// on a timer; tests call it directly for deterministic expiry. sweepMu
// excludes the snapshotter's capture window: a lease the sweep has delinked
// but not yet closed would be invisible to the capture's flush pass, and
// its close publishes buffered elements.
func (s *Server) ExpireIdle(cutoff time.Time) int {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	n := 0
	for _, t := range s.tenantSnapshot() {
		n += t.expireIdle(cutoff)
	}
	return n
}

// AutoScaleTick advances every tenant's contention-driven controller one
// tick (queue first, counter tracking the queue's shard count), returning
// the number of tenants that resized. A no-op unless Config.AutoScale is
// set. The janitor calls it on its sweep timer; tests call it directly for
// deterministic resize epochs.
func (s *Server) AutoScaleTick() int {
	if s.cfg.AutoScale == nil {
		return 0
	}
	journaled := s.log() != nil
	n := 0
	for _, t := range s.tenantSnapshot() {
		// A journaled autoscale resize runs under the tenant's ops gate so
		// its record cannot interleave with a snapshot capture (which would
		// strand the resize on the wrong side of the cut).
		if journaled {
			t.ops.RLock()
		}
		if t.autoScaleTick() {
			n++
			if journaled {
				_ = s.journal(&wal.Record{Type: wal.RecResize, Tenant: t.name, M: t.mq.M()})
			}
		}
		if journaled {
			t.ops.RUnlock()
		}
	}
	return n
}

// StartJanitor launches the maintenance loop — every interval it expires
// leases idle for Config.IdleTimeout, ticks every tenant's resize
// controller (with Config.AutoScale set), and writes a snapshot once the
// journal has grown Durability.SnapshotBytes since the last one — and
// returns its stop function. With no duty configured it returns a no-op
// stop without launching anything. interval <= 0 defaults to
// IdleTimeout / 4 (1s when only autoscaling or snapshotting).
func (s *Server) StartJanitor(interval time.Duration) (stop func()) {
	if s.cfg.IdleTimeout <= 0 && s.cfg.AutoScale == nil && s.cfg.Durability == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = s.cfg.IdleTimeout / 4
		if interval <= 0 {
			interval = time.Second
		}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if s.cfg.IdleTimeout > 0 {
					s.ExpireIdle(time.Now().Add(-s.cfg.IdleTimeout))
				}
				s.AutoScaleTick()
				if d := s.cfg.Durability; d != nil && d.SnapshotBytes > 0 {
					if l := s.log(); l != nil && l.BytesSinceSnapshot() >= d.SnapshotBytes {
						_ = s.Snapshot()
					}
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Close flushes and retires every lease and marks the server closed (further
// /v1 requests get 503; /healthz and /metrics stay up). The final-flush half
// of the conservation contract: after Close every buffered element has been
// published, so quiescent audits (tenant stats, direct structure reads) are
// exact. With durability on, Close then writes a final snapshot and seals
// the journal, so a clean restart replays zero records.
func (s *Server) Close() {
	s.closed.Store(true)
	s.ExpireIdle(time.Now().Add(time.Hour))
	if l := s.log(); l != nil {
		_ = s.Snapshot()
		_ = l.Close()
	}
}

// ServeHTTP routes the wire API. The path grammar is Go 1.21-compatible
// manual parsing: /healthz, /readyz, /metrics, and /v1/{tenant}/{op} where
// op is one of enqueue-batch, delete-min-up-to, counter/add-batch,
// counter/read, session/close, resize, stats.
//
// /healthz is liveness: 200 for the whole process lifetime, including WAL
// replay and graceful drain — restarting a recovering daemon only makes it
// recover again. /readyz is readiness: 503 until recovery completes and 503
// again once drain begins, so orchestrators stop routing without killing
// the process. /metrics stays scrapeable throughout; only /v1 traffic is
// refused while not ready or draining.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	case r.URL.Path == "/readyz":
		s.serveReadyz(w)
	case r.URL.Path == "/metrics":
		s.serveMetrics(w)
	case strings.HasPrefix(r.URL.Path, "/v1/"):
		if s.closed.Load() {
			writeError(w, http.StatusServiceUnavailable, "server closed")
			return
		}
		if !s.ready.Load() {
			writeError(w, http.StatusServiceUnavailable, "recovering: journal replay in progress")
			return
		}
		s.serveTenantOp(w, r, strings.TrimPrefix(r.URL.Path, "/v1/"))
	default:
		writeError(w, http.StatusNotFound, "unknown path")
	}
}

// validTenantName bounds tenant names to a filesystem/metrics-safe alphabet.
func validTenantName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// opCtx threads the lease a handler acquired back to serveTenantOp's
// recovery envelope: handlers set l right after acquisition and never
// release it themselves, so exactly one place — the envelope — decides
// between a normal release (done) and a post-panic repair, and lease.mu can
// never be left held by a faulting handler.
type opCtx struct {
	l *lease
}

// serveTenantOp dispatches one /v1/{tenant}/{op} request through the
// degradation ladder (DESIGN.md §10): static in-flight backpressure, then
// adaptive load shedding, then the per-request deadline, with the handler
// itself running under a panic-recovery envelope that repairs the session
// lease (flush-or-close) before answering 500.
func (s *Server) serveTenantOp(w http.ResponseWriter, r *http.Request, rest string) {
	name, op, ok := strings.Cut(rest, "/")
	if !ok || !validTenantName(name) {
		writeError(w, http.StatusNotFound, "bad tenant path")
		return
	}
	t, ok := s.tenant(name)
	if !ok {
		writeError(w, http.StatusForbidden, "tenant limit reached")
		return
	}
	if !t.acquire() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "tenant in-flight budget exceeded")
		return
	}
	defer t.release()
	mutating := op == "enqueue-batch" || op == "delete-min-up-to" || op == "counter/add-batch"
	if s.log() != nil {
		switch op {
		case "enqueue-batch", "delete-min-up-to", "counter/add-batch", "session/close", "resize":
			// The tenant's ops gate (read side). The snapshotter takes the
			// write side, so a capture sees no journaled operation in
			// flight. Registered before the recovery envelope: defers run
			// LIFO, so the gate is still held while the envelope repairs a
			// panicked lease — the repair flush publishes elements, which
			// must not interleave with a capture either.
			t.ops.RLock()
			defer t.ops.RUnlock()
		}
	}
	if mutating {
		if retryAfter, shed := t.shed(); shed {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			writeError(w, http.StatusTooManyRequests, "load shed")
			return
		}
	}
	if d := s.cfg.RequestTimeout; d > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)
	}
	start := time.Now()
	oc := &opCtx{}
	defer func() {
		rec := recover()
		if oc.l != nil {
			if rec != nil {
				t.repair(oc.l)
			} else {
				oc.l.done()
			}
		}
		if mutating {
			t.observeLatency(time.Since(start))
		}
		if rec != nil {
			site, injected := fail.IsInjectedPanic(rec)
			if !injected {
				// A genuine bug: the lease is repaired and released, but the
				// panic is re-raised so it is reported, not absorbed.
				panic(rec)
			}
			t.panicsRecovered.Add(1)
			writeError(w, http.StatusInternalServerError, "handler fault at "+site+"; session repaired")
		}
	}()
	if fail.Enabled {
		if err := fail.Inject(fail.SiteDlzdHandlerPre); err != nil {
			writeError(w, http.StatusInternalServerError, "injected fault before handler")
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	switch op {
	case "enqueue-batch":
		s.handleEnqueueBatch(w, r, t, oc)
	case "delete-min-up-to":
		s.handleDeleteMinUpTo(w, r, t, oc)
	case "counter/add-batch":
		s.handleCounterAdd(w, r, t, oc)
	case "counter/read":
		s.handleCounterRead(w, r, t, oc)
	case "session/close":
		s.handleSessionClose(w, r, t)
	case "resize":
		s.handleResize(w, r, t)
	case "stats":
		s.handleStats(w, r, t)
	default:
		writeError(w, http.StatusNotFound, "unknown operation")
	}
}

// finish writes a mutating handler's success response through the
// dlzd/handler/post failpoint: an injected error or panic there models the
// classic applied-but-unacknowledged fault — the operations are committed
// (their counters are defer-committed by the handler) but the client sees a
// 500 instead of the success body.
func (s *Server) finish(w http.ResponseWriter, v any) {
	if fail.Enabled {
		if err := fail.Inject(fail.SiteDlzdHandlerPost); err != nil {
			writeError(w, http.StatusInternalServerError, "injected fault before response")
			return
		}
	}
	writeJSON(w, v)
}

// writeBusy answers a request whose session lease could not be locked within
// the request deadline: 503 with a Retry-After hint. The token's current
// holder is stalled or long-running; the lease itself stays live.
func writeBusy(w http.ResponseWriter, t *tenant) {
	t.rejectedBusy.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "session busy")
}

// decode parses a JSON body into v, writing a 400/405 on failure and
// reporting whether the handler should continue.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSONStatus(w, code, ErrorResponse{Error: msg})
}

// writeJSONStatus writes v as the JSON body of a non-200 reply.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleEnqueueBatch(w http.ResponseWriter, r *http.Request, t *tenant, oc *opCtx) {
	var req EnqueueBatchRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Session == "" {
		writeError(w, http.StatusBadRequest, "session token required")
		return
	}
	if len(req.Items) == 0 || len(req.Items) > MaxWireBatch {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("items must number in [1, %d]", MaxWireBatch))
		return
	}
	l, ok := t.lease(r.Context(), req.Session)
	if !ok {
		writeBusy(w, t)
		return
	}
	oc.l = l
	if !t.admitQuota(l, len(req.Items)) {
		writeError(w, http.StatusTooManyRequests, "tenant operation quota exhausted")
		return
	}
	// The applied count commits by defer so it is exact on every exit — a
	// clean 200, an injected mid-batch abort, a deadline overrun, or a panic
	// unwinding to the recovery envelope. Conservation audits rely on it:
	// OpsEnqueued counts exactly the items that entered the leased handle.
	// The journal record mirrors the same discipline: appended explicitly
	// before the 200 on the ack path, and by defer on every other exit, so
	// the journal records exactly the applied operations (an error or panic
	// exit journals applied-but-unacknowledged work — the documented
	// at-least-once overshoot a restart may resurface).
	applied := 0
	metered := uint64(len(req.Items))
	logged := false
	journal := func() error {
		if logged {
			return nil
		}
		logged = true
		return s.journal(&wal.Record{Type: wal.RecEnqueue, Tenant: t.name, Session: req.Session,
			Items: wireToWalItems(req.Items, applied), Metered: metered})
	}
	defer func() {
		t.opsEnqueued.Add(uint64(applied))
		if s.log() != nil {
			_ = journal()
		}
	}()
	ctx := r.Context()
	for _, it := range req.Items {
		if fail.Enabled {
			if err := fail.Inject(fail.SiteDlzdEnqueueItem); err != nil {
				writeError(w, http.StatusInternalServerError,
					fmt.Sprintf("injected abort after %d items", applied))
				return
			}
		}
		if ctx.Err() != nil {
			t.deadlineAborts.Add(1)
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("deadline exceeded after %d items", applied))
			return
		}
		// Count before the call: EnqueuePriority's only fault point (the core
		// flush failpoint) fires with the element already in the handle
		// buffer, where the repair flush will publish it — counting after
		// would leak exactly the elements that ride a faulted auto-publish.
		applied++
		l.mqh.EnqueuePriority(it.Priority, it.Value)
	}
	if s.log() != nil {
		if err := journal(); err != nil {
			writeError(w, http.StatusInternalServerError, "journal append failed")
			return
		}
	}
	s.finish(w, EnqueueBatchResponse{Enqueued: applied, Buffered: l.mqh.Buffered()})
}

func (s *Server) handleDeleteMinUpTo(w http.ResponseWriter, r *http.Request, t *tenant, oc *opCtx) {
	var req DeleteMinRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Session == "" {
		writeError(w, http.StatusBadRequest, "session token required")
		return
	}
	if req.Max < 1 || req.Max > MaxWireBatch {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("max must be in [1, %d]", MaxWireBatch))
		return
	}
	l, ok := t.lease(r.Context(), req.Session)
	if !ok {
		writeBusy(w, t)
		return
	}
	oc.l = l
	if !t.admitQuota(l, req.Max) {
		writeError(w, http.StatusTooManyRequests, "tenant operation quota exhausted")
		return
	}
	// Defer-committed like the enqueue count: elements drained out of the
	// structure are counted even when a later fault turns the response into
	// a 500 (at-most-once delivery — the server ledger stays exact).
	items := make([]WireItem, 0, req.Max)
	metered := uint64(req.Max)
	logged := false
	journal := func() error {
		if logged {
			return nil
		}
		logged = true
		out := make([]wal.Item, len(items))
		for i, it := range items {
			out[i] = wal.Item{Priority: it.Priority, Value: it.Value}
		}
		return s.journal(&wal.Record{Type: wal.RecDeleteMin, Tenant: t.name, Session: req.Session,
			Items: out, Metered: metered})
	}
	defer func() {
		t.opsDequeued.Add(uint64(len(items)))
		if s.log() != nil {
			_ = journal()
		}
	}()
	ctx := r.Context()
	truncated := false
	for len(items) < req.Max {
		if ctx.Err() != nil {
			// Deadline mid-drain: answer 200 with what was obtained — the
			// elements are already removed, so a partial success is the
			// response that keeps delivered-exactly-once intact.
			t.deadlineAborts.Add(1)
			truncated = true
			break
		}
		it, ok := l.mqh.Dequeue()
		if !ok {
			break
		}
		items = append(items, WireItem{Priority: it.Priority, Value: it.Value})
	}
	if s.log() != nil {
		if err := journal(); err != nil {
			// The elements are already removed; the journal defer would not
			// retry (logged is set). A 500 here means the journal refused —
			// the record was never written, so a restart resurfaces the
			// drained elements: at-most-once delivery still holds, the
			// client just cannot know which. The failure counter surfaces it.
			writeError(w, http.StatusInternalServerError, "journal append failed")
			return
		}
	}
	s.finish(w, DeleteMinResponse{Items: items, Truncated: truncated})
}

func (s *Server) handleCounterAdd(w http.ResponseWriter, r *http.Request, t *tenant, oc *opCtx) {
	var req CounterAddRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Session == "" {
		writeError(w, http.StatusBadRequest, "session token required")
		return
	}
	if len(req.Deltas) == 0 || len(req.Deltas) > MaxWireBatch {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("deltas must number in [1, %d]", MaxWireBatch))
		return
	}
	l, ok := t.lease(r.Context(), req.Session)
	if !ok {
		writeBusy(w, t)
		return
	}
	oc.l = l
	if !t.admitQuota(l, len(req.Deltas)) {
		writeError(w, http.StatusTooManyRequests, "tenant operation quota exhausted")
		return
	}
	// Both the op count and the delta weight commit by defer, so
	// CounterDeltaSum equals the counter's exact value at quiescence even
	// when a fault interrupts the apply loop.
	applied, weight := 0, uint64(0)
	metered := uint64(len(req.Deltas))
	logged := false
	journal := func() error {
		if logged {
			return nil
		}
		logged = true
		return s.journal(&wal.Record{Type: wal.RecCounterAdd, Tenant: t.name, Session: req.Session,
			Count: uint64(applied), Weight: weight, Metered: metered})
	}
	defer func() {
		t.opsCounterAdds.Add(uint64(applied))
		t.counterDeltaSum.Add(weight)
		if s.log() != nil {
			_ = journal()
		}
	}()
	ctx := r.Context()
	for _, d := range req.Deltas {
		if ctx.Err() != nil {
			t.deadlineAborts.Add(1)
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("deadline exceeded after %d deltas", applied))
			return
		}
		l.ch.Add(d)
		applied++
		weight += d
	}
	if s.log() != nil {
		if err := journal(); err != nil {
			writeError(w, http.StatusInternalServerError, "journal append failed")
			return
		}
	}
	s.finish(w, CounterAddResponse{
		Added:          applied,
		BufferedOps:    l.ch.Buffered(),
		BufferedWeight: l.ch.BufferedWeight(),
	})
}

func (s *Server) handleCounterRead(w http.ResponseWriter, r *http.Request, t *tenant, oc *opCtx) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	session := r.URL.Query().Get("session")
	if session == "" {
		writeError(w, http.StatusBadRequest, "session query parameter required")
		return
	}
	l, ok := t.lease(r.Context(), session)
	if !ok {
		writeBusy(w, t)
		return
	}
	oc.l = l
	writeJSON(w, CounterReadResponse{Value: l.ch.Read()})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req SessionCloseRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Session == "" {
		writeError(w, http.StatusBadRequest, "session token required")
		return
	}
	closed := t.closeSession(req.Session)
	if closed && s.log() != nil {
		// The close published the lease's buffered work into the shared
		// structures; the record exists so two journal replays agree on when
		// that publish became visible (the replayed enqueues are already in
		// their own records — close carries no payload).
		if err := s.journal(&wal.Record{Type: wal.RecSessionClose, Tenant: t.name, Session: req.Session}); err != nil {
			writeError(w, http.StatusInternalServerError, "journal append failed")
			return
		}
	}
	writeJSON(w, SessionCloseResponse{Closed: closed})
}

// handleResize serves POST /v1/{tenant}/resize: move the tenant's live
// shard count to the requested m, clamped to the server's
// [MinQueues, MaxQueues] range, with the counter tracking the queue. The
// response reports the count actually in effect — administrative clients
// treat a clamped result as success, not an error.
func (s *Server) handleResize(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req ResizeRequest
	if !decode(w, r, &req) {
		return
	}
	if req.M < 1 {
		writeError(w, http.StatusBadRequest, "m must be >= 1")
		return
	}
	m := t.mq.Resize(req.M)
	t.mc.Resize(m)
	if s.log() != nil {
		if err := s.journal(&wal.Record{Type: wal.RecResize, Tenant: t.name, M: m}); err != nil {
			writeError(w, http.StatusInternalServerError, "journal append failed")
			return
		}
	}
	st := t.mq.Stats()
	writeJSON(w, ResizeResponse{M: m, Epoch: st.Epoch, Resizes: st.Resizes})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, t *tenant) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	agg := t.liveLeaseStats()
	mqs := t.mq.Stats()
	writeJSON(w, StatsResponse{
		Tenant:                t.name,
		QueueLen:              t.mq.Len(),
		CounterExact:          t.mc.Exact(),
		QuotaUsed:             t.quota.Exact(),
		Leases:                agg.leases,
		BufferedEnqueues:      agg.bufferedEnqueues,
		PrefetchedDequeues:    agg.prefetchedDequeues,
		BufferedCounterOps:    agg.bufferedCounterOps,
		BufferedCounterWeight: agg.bufferedCounterWeight,
		OpsEnqueued:           t.opsEnqueued.Load(),
		OpsDequeued:           t.opsDequeued.Load(),
		OpsMetered:            t.opsMetered.Load(),
		CounterDeltaSum:       t.counterDeltaSum.Load(),
		ShedLevel:             int(t.shedLevel.Load()),
		PanicsRecovered:       t.panicsRecovered.Load(),
		RepairFailures:        t.repairFailures.Load(),
		Invalidations:         mqs.Invalidations,
		Reclaimed:             mqs.Reclaimed,
		CurrentM:              mqs.CurrentM,
		Epoch:                 mqs.Epoch,
		Resizes:               mqs.Resizes,
	})
}
