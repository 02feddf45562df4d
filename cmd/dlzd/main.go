// Command dlzd runs the multi-tenant relaxed-structure daemon: the dlzd
// package's HTTP/JSON wire API served by its own connection loop on a
// listening socket (DESIGN.md §8), with the snapshot janitor running when
// durability is on and a graceful shutdown path that drains the connections
// and, with durability on, writes a final snapshot on SIGINT/SIGTERM.
//
// Usage:
//
//	dlzd -addr :8377 -queues 64
//
// Every tenant structure runs d = 2 choices, a stickiness window of 16 and a
// handle batch of 8, with seed 1: the configuration the benchmark measures.
// No flag sets them.
//
// The degradation ladder (DESIGN.md §10) and the socket limits (DESIGN.md
// §8) are always on, at values fixed in the dlzd package: a 1s request
// deadline, a 100ms shed target with a 100ms dwell, 30s read and write
// timeouts, a 10s header timeout and a 1 MiB header cap. No flag sets them.
//
// Drive it with cmd/dlzd-load, which exits 1 when a tenant's stats leave
// the client's ledger; scrape GET /metrics for the elision, slow-path lock and
// sampler-reroll counters plus the degradation-ladder series (shed level,
// deadline/panic counters).
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
		maxTenants  = flag.Int("max-tenants", 64, "tenant namespace cap")
		maxInflight = flag.Int("max-inflight", 256, "per-tenant in-flight request budget (0 = unlimited)")

		// Durability knobs (DESIGN.md §12); all inert unless -wal-dir is set.
		walDir = flag.String("wal-dir", "",
			"write-ahead journal directory; enables crash durability (empty = off)")
		walFsync = flag.String("wal-fsync", "never",
			"journal fsync policy: never (process-crash durable), interval (group flusher), always (group commit per ack)")
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
			SnapshotBytes: *walSnapshotBytes,
		}
	}

	srv := dlzd.New(dlzd.Config{
		Queues:      *queues,
		Stickiness:  16,
		Batch:       8,
		MaxTenants:  *maxTenants,
		MaxInFlight: *maxInflight,
		Durability:  durability,
	})

	// Bind before recovery: /healthz answers immediately while /readyz and
	// /v1 answer 503 until the journal replay completes, so an orchestrator
	// sees a live-but-not-ready process instead of a refused connection.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dlzd: listening on %s (m=%d)", *addr, *queues)

	stopped := make(chan struct{})
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(stopped)
		<-done
		log.Printf("dlzd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Stop accepting, close idle connections, let in-flight requests be
		// answered; past the grace period the stragglers are cut off.
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("dlzd: drain: %v", err)
		}
		// Refuse further /v1 traffic; with durability on this also writes
		// the final snapshot and seals the journal, so a clean restart
		// replays zero records.
		srv.Close()
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	stats, err := srv.Recover()
	if err != nil {
		log.Fatalf("dlzd: recovery failed: %v", err)
	}
	if durability != nil {
		log.Printf("dlzd: recovered %d tenants (%d records on snapshot cut %d, head %d, %d torn bytes) in %s; ready",
			stats.Tenants, stats.Records, stats.SnapshotCut, stats.Head, stats.TornBytes, stats.Duration)
	}
	stopJanitor := srv.StartJanitor()
	defer stopJanitor()

	if err := <-serveErr; err != dlzd.ErrServerClosed {
		log.Fatal(err)
	}
	<-stopped // wait for the final snapshot before exiting
}
