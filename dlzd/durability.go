package dlzd

// Durability rung (DESIGN.md §12): an optional write-ahead journal plus
// point-in-time snapshots behind Config.Durability. Default off — with the
// field nil every hook in this file is a nil check and the daemon is
// byte-for-byte the in-memory daemon.
//
// The protocol: every acknowledged mutating request appends one record
// describing the operations it APPLIED before its 200 is written (append
// failure turns the ack into a 500; the defer'd append on error/panic exits
// keeps the journal a superset of applied-but-unacknowledged work, exactly
// mirroring the defer-committed ledger counters). The snapshotter quiesces
// each tenant behind its ops gate, flushes every lease (including returning
// prefetched elements), captures queue contents / counter values / ledger
// counters, reads the cut LSN, and releases the gates before touching disk —
// records appended during the disk write have LSN > cut and replay on top.
// Recovery is Open → restoreTenant: wal.Open streams the journal once, a
// segment at a time, folding every record into per-tenant state as it is
// decoded, and hands back those states; restoreTenant rebuilds each namespace
// from its state, and only then does the server flip ready.

import (
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/wal"
)

// Durability configures the optional WAL rung; nil (the default) disables
// it entirely.
type Durability struct {
	// Dir is the journal directory (required).
	Dir string
	// Fsync is the fsync policy for acknowledged records (default never:
	// records still survive process SIGKILL once written; interval/always
	// buy machine-crash durability). The interval flusher's period and the
	// segment roll size are wal.Options' defaults, 100ms and 4MiB, unless
	// the binary was linked with walFsyncInterval or walSegmentBytes.
	Fsync wal.FsyncPolicy
	// SnapshotBytes triggers a janitor-driven snapshot once the journal has
	// grown this much since the last one (default 64MiB; negative disables
	// auto-snapshotting — snapshots then happen only at Close).
	SnapshotBytes int64
}

// walFsyncInterval and walSegmentBytes override the journal's flusher period
// (a time.Duration string) and segment roll size (bytes). No flag or field
// sets them, only a link with -ldflags "-X repro/dlzd.walSegmentBytes=N":
// TestKillRestartSoak's build does, so that its SIGKILLs land around fsyncs
// and segment rolls.
var walFsyncInterval, walSegmentBytes string

// RecoveryStats summarizes one Recover call for logging and tests.
type RecoveryStats struct {
	// Records is the number of journal records replayed on top of the
	// snapshot (zero after a clean shutdown).
	Records int
	// Tenants is the number of tenant namespaces restored.
	Tenants int
	// SnapshotCut is the cut LSN of the snapshot recovery started from
	// (0 when no snapshot existed).
	SnapshotCut uint64
	// Head is the last valid LSN on disk.
	Head uint64
	// TornBytes counts bytes truncated off a torn segment tail.
	TornBytes int64
	// Duration is the wall time of recovery including state restoration.
	Duration time.Duration
}

// log returns the journal, nil when durability is off or recovery has not
// run yet. An atomic pointer because /metrics can race Recover.
func (s *Server) log() *wal.Log { return s.walPtr.Load() }

// Recover opens the journal, replays the durable state into fresh tenant
// namespaces, and flips the server ready. It must be called exactly once,
// before traffic, on a server configured with Durability; without
// Durability it is a ready-flipping no-op so callers can invoke it
// unconditionally. Sessions are not recovered — leases are connection
// state, and every element they buffered was journaled (and is replayed)
// as applied operations.
func (s *Server) Recover() (*RecoveryStats, error) {
	d := s.cfg.Durability
	if d == nil {
		s.ready.Store(true)
		return &RecoveryStats{}, nil
	}
	start := time.Now()
	opt := wal.Options{Dir: d.Dir, Policy: d.Fsync}
	// An empty or malformed value parses as 0, which keeps wal's default.
	opt.Interval, _ = time.ParseDuration(walFsyncInterval)
	opt.SegmentBytes, _ = strconv.ParseInt(walSegmentBytes, 10, 64)
	l, rec, err := wal.OpenWithProgress(opt, &s.replay)
	if err != nil {
		return nil, fmt.Errorf("dlzd: journal open: %w", err)
	}
	states := rec.States
	if len(states) > s.cfg.MaxTenants {
		_ = l.Close()
		return nil, fmt.Errorf("dlzd: journal holds %d tenants, MaxTenants is %d", len(states), s.cfg.MaxTenants)
	}
	// Everything the fold built but the states died when Open returned.
	// Collect it now, so the shards growing under restore reuse its spans,
	// not fresh pages that would raise the peak RSS (EXPERIMENTS.md §26).
	runtime.GC()
	for _, st := range states {
		if err := s.restoreTenant(st); err != nil {
			_ = l.Close()
			return nil, err
		}
	}
	stats := &RecoveryStats{
		Records:     rec.Replayed,
		Tenants:     len(states),
		SnapshotCut: rec.SnapshotCut,
		Head:        rec.Head,
		TornBytes:   rec.TornBytes,
		Duration:    time.Since(start),
	}
	s.recoveryNanos.Store(int64(stats.Duration))
	s.walPtr.Store(l)
	s.ready.Store(true)
	return stats, nil
}

// restoreTenant materializes one rebuilt tenant state through the normal
// structure paths: bulk re-enqueue through a throwaway handle (the same
// batched AddBatch path the wire rides), seed the counter, and store the
// ledger counters directly.
func (s *Server) restoreTenant(st wal.TenantState) error {
	t, ok := s.tenant([]byte(st.Name))
	if !ok {
		return fmt.Errorf("dlzd: tenant %q refused during recovery", st.Name)
	}
	if len(st.Items) > 0 {
		h := t.mq.NewHandle(s.nextSeed())
		for _, it := range st.Items {
			h.EnqueuePriority(it.Priority, it.Value)
		}
		h.Close()
	}
	if st.CounterSum > 0 {
		ch := t.mc.NewHandle(s.nextSeed())
		ch.Add(st.CounterSum)
		ch.Close()
	}
	t.opsEnqueued.Store(st.OpsEnqueued)
	t.opsDequeued.Store(st.OpsDequeued)
	t.opsCounterAdds.Store(st.OpsCounterAdds)
	t.counterDeltaSum.Store(st.CounterDeltaSum)
	return nil
}

// journal appends one record, counting failures for /metrics. The caller
// decides whether a failure poisons the ack (mutating handlers answer 500)
// or is advisory.
func (s *Server) journal(rec *wal.Record) error {
	l := s.log()
	if l == nil {
		return nil
	}
	if _, err := l.Append(rec); err != nil {
		s.walAppendErrors.Add(1)
		return err
	}
	return nil
}

// Snapshot captures every tenant at one consistent cut and persists it,
// truncating journal segments the snapshot covers. Safe to call any time;
// a no-op without durability. The janitor calls it on the SnapshotBytes
// trigger and Close writes a final one.
func (s *Server) Snapshot() error {
	if s.log() == nil {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	snap := s.captureSnapshot()
	if err := s.log().WriteSnapshot(snap); err != nil {
		return err
	}
	s.snapshotsTaken.Add(1)
	return nil
}

// captureSnapshot quiesces and captures all tenants, returning a snapshot
// whose cut LSN covers everything captured. Gates are released before the
// caller writes to disk: every mutator admitted after release journals with
// LSN > cut, so the disk write needs no exclusion.
func (s *Server) captureSnapshot() *wal.Snapshot {
	// sweepMu excludes the idle-expiry sweep: a lease the sweep has
	// delinked but not yet closed is invisible to the flush pass below, and
	// its close would publish buffered elements mid-capture.
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	// Hold s.mu (read) for the whole capture so no tenant is created
	// between gate acquisition and the cut.
	s.mu.RLock()
	defer s.mu.RUnlock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	// Take every ops gate: journaled handlers (and their panic repair) are
	// all behind RLocks, so after this loop the tenant states are frozen.
	for _, t := range tenants {
		t.ops.Lock()
	}
	defer func() {
		for _, t := range tenants {
			t.ops.Unlock()
		}
	}()

	snap := &wal.Snapshot{}
	var elems []wal.Item // one drain buffer for every tenant's capture
	for _, t := range tenants {
		// Quiesce the leases: publish buffered inserts and increments, and
		// return unconsumed prefetched elements so the capture sees them.
		t.mu.Lock()
		live := make([]*lease, 0, len(t.leases))
		for _, l := range t.leases {
			live = append(live, l)
		}
		t.mu.Unlock()
		for _, l := range live {
			l.mu.Lock()
			if !l.closed {
				l.mqh.Flush()
				l.mqh.ReturnPrefetched()
				l.ch.Flush()
			}
			l.mu.Unlock()
		}
		elems = t.mq.SnapshotElements(elems[:0])
		st := wal.TenantState{
			Name:            t.name,
			Items:           slices.Clone(elems),
			CounterSum:      t.mc.Exact(),
			OpsEnqueued:     t.opsEnqueued.Load(),
			OpsDequeued:     t.opsDequeued.Load(),
			OpsCounterAdds:  t.opsCounterAdds.Load(),
			CounterDeltaSum: t.counterDeltaSum.Load(),
		}
		st.SortItems()
		snap.Tenants = append(snap.Tenants, st)
	}
	if l := s.log(); l != nil {
		snap.CutLSN = l.Head()
	}
	return snap
}

// readyz answers GET /readyz: 200 only when recovery has completed and the
// server is not draining. Liveness stays on /healthz, which is 200 for the
// whole process lifetime — the split lets an orchestrator stop routing
// traffic during replay and drain without restarting the process.
func (s *Server) readyz(dst []byte) ([]byte, reply) {
	switch {
	case s.closed.Load():
		return errorReply(dst, http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		return appendJSON(dst, RecoveringResponse{
			Error:            "recovering: journal replay in progress",
			ReplayedRecords:  s.replay.Records.Load(),
			ReplayedSegments: s.replay.Segments.Load(),
		}), reply{status: http.StatusServiceUnavailable}
	}
	return append(dst, "{\"ready\":true}\n"...), reply{status: http.StatusOK}
}
