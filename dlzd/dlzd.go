// Package dlzd is the multi-tenant relaxed-structure daemon: an HTTP/JSON
// front end that serves the repository's distributionally linearizable
// MultiQueue and MultiCounter to network clients — the "millions of users"
// direction of ROADMAP.md, with the paper's per-thread handle discipline
// mapped onto a per-tenant pool of handle pairs (DESIGN.md §8).
//
// Each tenant namespace owns one dlz.MultiQueue and one dlz.MultiCounter
// (created on first use, bounded by Config.MaxTenants) and a pool of
// (queue, counter) handle pairs. A request borrows a pair for its duration
// and gives it back before it answers, so a tenant owns no more pairs than
// it ever ran requests at once: the paper's n concurrent handles. A pair's
// sticky d-choice sampler survives from one borrower to the next, as it
// survives operation boundaries in-process; its batch buffers do not, since
// the give-back publishes them. Clients need no session token: the hot
// bodies' "session" key and POST /v1/{tenant}/session/close are accepted
// and ignored.
//
// The wire batch API (enqueue-batch, delete-min-up-to, counter/add-batch)
// rides the zero-alloc TryAddBatch/TryDeleteMinUpTo fast path end-to-end:
// wire batches land in the borrowed handle's fixed buffers and publish in
// Batch-size lumps with one lock acquisition each (the last, partial lump
// before the answer), and a shard whose lock refuses the try is redrawn, not
// waited on. Backpressure is a bounded per-tenant in-flight budget (429 on
// overflow). GET /metrics exports the publication-elision, slow-path lock
// and sampler-reroll counters the internals already maintain.
//
// Run it with cmd/dlzd, which passes Stickiness 16 and Batch 8 and leaves
// every other structure field at its default; cmd/dlzd-load drives it and
// checks that every acknowledged operation is still there.
package dlzd

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// MaxWireBatch bounds the item count of a single wire request (enqueue
// items, dequeue max, counter deltas), keeping one request's handler time
// and response size bounded regardless of client behavior.
const MaxWireBatch = 4096

// Config configures New. Every field is optional: Queues, MaxTenants and
// Seed default to 64, 64 and 1, Choices, Stickiness and Batch to the dlz
// defaults, and a zero MaxInFlight or a nil Durability leaves that bound or
// duty off. The degradation ladder, the socket limits and the janitor's
// period are not configured here: they are the constants below.
type Config struct {
	// Queues is m for each tenant's MultiQueue and MultiCounter (default
	// 64), fixed for the tenant's life. For the paper's guarantees it should
	// be a large constant multiple of the expected concurrent request count
	// per tenant, the number of handle pairs its pool grows to.
	Queues int
	// Choices, Stickiness and Batch configure the fast path of every tenant
	// structure, with the same semantics and defaults as
	// dlz.MultiQueueConfig / dlz.MultiCounterConfig.
	Choices    int
	Stickiness int
	Batch      int
	// MaxTenants bounds the number of live namespaces (default 64); further
	// tenant names are rejected with 403.
	MaxTenants int
	// MaxInFlight bounds the number of requests concurrently inside one
	// tenant's handlers — the backpressure budget; overflow is rejected
	// with 429 — and with it the tenant's handle pairs. 0 means unlimited.
	MaxInFlight int
	// Seed feeds the structure and handle seed sequence (default 1).
	Seed uint64
	// Durability enables the write-ahead journal + snapshot rung (DESIGN.md
	// §12): every acknowledged mutating request is journaled before its 200
	// and Recover rebuilds the tenant namespaces on boot. nil (the default)
	// keeps the daemon purely in-memory with zero added work on any path.
	Durability *Durability
}

// The degradation ladder (DESIGN.md §10) and the connection loop's socket
// limits (DESIGN.md §8). Every server runs with these values.
const (
	requestTimeout    = time.Second            // arrival to deadline: 503 aborted, or a truncated 200
	shedTarget        = 100 * time.Millisecond // a tenant whose latency EWMA is above it sheds (429)
	shedHold          = 100 * time.Millisecond // minimum dwell between two shed level changes
	readTimeout       = 30 * time.Second       // the idle wait, and a whole request from its first byte
	readHeaderTimeout = 10 * time.Second       // line and headers from the first byte: the slowloris bound
	writeTimeout      = 30 * time.Second       // one write of pending answers
	maxHeaderBytes    = 1 << 20                // line plus headers; 431 past it

	janitorPeriod = 50 * time.Millisecond // how often the janitor checks the snapshot trigger
)

// ladder is a server's copy of the constants above. New fills it; only a
// test writes it, to set a value before the server sees traffic.
type ladder struct {
	requestTimeout, shedTarget, shedHold         time.Duration
	readTimeout, readHeaderTimeout, writeTimeout time.Duration
	maxHeaderBytes                               int
}

// Server is the daemon: the wire API's request pipeline (pipeline.go), the
// connection loop that serves it on a listener (Serve, conn.go), an
// http.Handler over the same pipeline, and the lifecycle entry points the
// binary and the tests drive directly. Create with New.
type Server struct {
	cfg    Config
	ladder ladder

	mu      sync.RWMutex // guards tenants
	tenants map[string]*tenant

	seeds  atomic.Uint64
	closed atomic.Bool

	// Connection-loop state (conn.go). connMu guards listeners, conns and
	// drained; draining is set once, by Shutdown.
	connMu    sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	drained   chan struct{} // closed when the last connection of a draining server exits
	draining  atomic.Bool

	connsAccepted   atomic.Uint64
	requests        atomic.Uint64 // ServeHTTP's requests, plus closed connections' (live ones count their own)
	decodeFallbacks atomic.Uint64 // hot bodies the scanner declined
	protocolErrors  [len(protocolStatuses)]atomic.Uint64

	// Durability state (all quiescent without Config.Durability). ready
	// gates /v1 traffic: false from New until Recover completes on a
	// durable server, true from New otherwise. snapMu serializes
	// snapshotters against each other.
	walPtr          atomic.Pointer[wal.Log]
	ready           atomic.Bool
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
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Choices < 0 {
		panic("dlzd: Config.Choices must be >= 0")
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
	s := &Server{cfg: cfg, tenants: map[string]*tenant{}, ladder: ladder{
		requestTimeout, shedTarget, shedHold, readTimeout, readHeaderTimeout, writeTimeout, maxHeaderBytes}}
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
func (s *Server) tenant(name []byte) (*tenant, bool) {
	s.mu.RLock()
	t, ok := s.tenants[string(name)]
	s.mu.RUnlock()
	if ok {
		return t, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok = s.tenants[string(name)]; ok {
		return t, true
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, false
	}
	t = newTenant(string(name), s)
	s.tenants[t.name] = t
	return t, true
}

// tenantSnapshot returns the live tenants (for metrics).
func (s *Server) tenantSnapshot() []*tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	return ts
}

// StartJanitor launches the maintenance loop — every janitorPeriod it writes
// a snapshot once the journal has grown Durability.SnapshotBytes since the
// last one — and returns its stop function. Without durability, or with
// automatic snapshots off, it returns a no-op stop without launching
// anything.
func (s *Server) StartJanitor() (stop func()) {
	d := s.cfg.Durability
	if d == nil || d.SnapshotBytes <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(janitorPeriod)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if l := s.log(); l != nil && l.BytesSinceSnapshot() >= d.SnapshotBytes {
					_ = s.Snapshot()
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Close marks the server closed (further /v1 requests get 503; /healthz and
// /metrics stay up). With durability on, it then writes a final snapshot and
// seals the journal, so a clean restart replays zero records.
func (s *Server) Close() {
	s.closed.Store(true)
	if l := s.log(); l != nil {
		_ = s.Snapshot()
		_ = l.Close()
	}
}
