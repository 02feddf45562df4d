// Command dlzd runs the multi-tenant relaxed-structure daemon: the dlzd
// package's HTTP/JSON wire API served by its own connection loop on a
// listening socket (DESIGN.md §8), with the idle-lease janitor running and a
// graceful shutdown path that drains the connections and then flushes every
// lease (so no buffered operation is lost on SIGINT/SIGTERM).
//
// Usage:
//
//	dlzd -addr :8377 -queues 64 -batch 8 -stickiness 16
//
// The degradation ladder (DESIGN.md §10) is flag-controlled: socket-level
// limits (-http-read-timeout, -http-read-header-timeout, -http-write-timeout,
// -http-max-header-bytes) default on, while the per-request deadline
// (-request-timeout) and adaptive load shedding (-shed-target, -shed-hold)
// default off so the default flags reproduce the pre-hardening daemon.
//
// Drive it with cmd/dlzd-load; scrape GET /metrics for the elision,
// spin-backoff and sampler-reroll counters plus the degradation-ladder
// series (shed level, busy/deadline/panic counters).
//
// Durability (DESIGN.md §12) is opt-in via -wal-dir: the daemon journals
// every acknowledged mutating request, recovers the journal before flipping
// /readyz to 200, and writes a final snapshot on SIGTERM so a clean restart
// replays zero records. The socket binds before recovery starts — /healthz
// answers 200 and /v1 answers 503 while the replay runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/dlzd"
	"repro/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8377", "listen address")
		queues      = flag.Int("queues", 64, "m: queues/counter shards per tenant, fixed for the tenant's life")
		choices     = flag.Int("choices", 2, "d: random choices per dequeue/increment")
		stickiness  = flag.Int("stickiness", 16, "s: sticky-choice window")
		batch       = flag.Int("batch", 8, "k: handle batch size")
		maxTenants  = flag.Int("max-tenants", 64, "tenant namespace cap")
		maxInflight = flag.Int("max-inflight", 256, "per-tenant in-flight request budget (0 = unlimited)")
		quotaOps    = flag.Uint64("quota-ops", 0, "per-tenant lifetime operation quota (0 = unlimited)")
		idle        = flag.Duration("idle-timeout", 30*time.Second, "lease idle expiry (0 = never)")
		seed        = flag.Uint64("seed", 1, "structure/handle seed sequence origin")

		// Request-hardening knobs (DESIGN.md §10). The per-request deadline and
		// adaptive shedding default off so the flag defaults reproduce the
		// pre-hardening daemon exactly; the connection loop's limits default
		// on, because a socket-level slowloris needs no failpoint to happen.
		reqTimeout = flag.Duration("request-timeout", 0,
			"per-request handler deadline: 503 busy when the session lease is not lockable in time, partial results past it (0 = no deadline)")
		shedTarget = flag.Duration("shed-target", 0,
			"adaptive load shedding latency target: above it a tenant sheds up to 3/4 of mutating requests with 429+Retry-After (0 = disabled)")
		shedHold = flag.Duration("shed-hold", 100*time.Millisecond,
			"minimum dwell between adaptive shed level changes")
		readTimeout = flag.Duration("http-read-timeout", 30*time.Second,
			"connection read deadline: the idle wait for a next request, and a whole request from its first byte (0 = none)")
		readHeaderTimeout = flag.Duration("http-read-header-timeout", 10*time.Second,
			"request line + header read deadline, the slowloris bound (0 = -http-read-timeout)")
		writeTimeout = flag.Duration("http-write-timeout", 30*time.Second,
			"response write deadline (0 = none)")
		maxHeaderBytes = flag.Int("http-max-header-bytes", 1<<20,
			"request line + header size cap (431 past it)")

		// Durability knobs (DESIGN.md §12); all inert unless -wal-dir is set.
		walDir = flag.String("wal-dir", "",
			"write-ahead journal directory; enables crash durability (empty = off)")
		walFsync = flag.String("wal-fsync", "never",
			"journal fsync policy: never (process-crash durable), interval (group flusher), always (group commit per ack)")
		walFsyncInterval = flag.Duration("wal-fsync-interval", 100*time.Millisecond,
			"flusher period for -wal-fsync=interval")
		walSegmentBytes = flag.Int64("wal-segment-bytes", 4<<20,
			"journal segment roll size")
		walSnapshotBytes = flag.Int64("wal-snapshot-bytes", 64<<20,
			"journal growth between janitor snapshots (negative = snapshot only at shutdown)")
	)
	flag.Parse()

	var durability *dlzd.Durability
	if *walDir != "" {
		policy, err := wal.ParseFsyncPolicy(*walFsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		durability = &dlzd.Durability{
			Dir:           *walDir,
			Fsync:         policy,
			FsyncInterval: *walFsyncInterval,
			SegmentBytes:  *walSegmentBytes,
			SnapshotBytes: *walSnapshotBytes,
		}
	}

	srv := dlzd.New(dlzd.Config{
		Queues:         *queues,
		Choices:        *choices,
		Stickiness:     *stickiness,
		Batch:          *batch,
		MaxTenants:     *maxTenants,
		MaxInFlight:    *maxInflight,
		QuotaOps:       *quotaOps,
		IdleTimeout:    *idle,
		RequestTimeout: *reqTimeout,
		ShedTarget:     *shedTarget,
		ShedHold:       *shedHold,
		Seed:           *seed,
		Durability:     durability,
	})

	// Bind before recovery: /healthz answers immediately while /readyz and
	// /v1 answer 503 until the journal replay completes, so an orchestrator
	// sees a live-but-not-ready process instead of a refused connection.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dlzd: listening on %s (m=%d batch=%d stickiness=%d)",
		*addr, *queues, *batch, *stickiness)

	stopped := make(chan struct{})
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(stopped)
		<-done
		log.Printf("dlzd: shutting down, flushing leases")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Stop accepting, close idle connections, let in-flight requests be
		// answered; past the grace period the stragglers are cut off.
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("dlzd: drain: %v", err)
		}
		// Flush and retire every lease; with durability on this also writes
		// the final snapshot and seals the journal, so a clean restart
		// replays zero records.
		srv.Close()
	}()

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- srv.Serve(ln, dlzd.Limits{
			ReadTimeout:       *readTimeout,
			ReadHeaderTimeout: *readHeaderTimeout,
			WriteTimeout:      *writeTimeout,
			MaxHeaderBytes:    *maxHeaderBytes,
		})
	}()

	stats, err := srv.Recover()
	if err != nil {
		log.Fatalf("dlzd: recovery failed: %v", err)
	}
	if durability != nil {
		log.Printf("dlzd: recovered %d tenants (%d records on snapshot cut %d, head %d, %d torn bytes) in %s; ready",
			stats.Tenants, stats.Records, stats.SnapshotCut, stats.Head, stats.TornBytes, stats.Duration)
	}
	stopJanitor := srv.StartJanitor(0)
	defer stopJanitor()

	if err := <-serveErr; err != dlzd.ErrServerClosed {
		log.Fatal(err)
	}
	<-stopped // wait for the final snapshot before exiting
}
