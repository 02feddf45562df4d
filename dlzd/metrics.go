package dlzd

import (
	"fmt"
	"sort"
	"strings"

	"repro/dlz"
)

// appendMetrics appends the Prometheus-style text exposition of GET /metrics.
//
// The aggregate lines are emitted unconditionally — even with zero tenants —
// so monitoring (and the CI smoke check) can assert their presence without
// priming traffic first. Per-tenant lines carry a tenant label and are sorted
// by tenant name for stable scrapes.
//
// Three internals counters surface here:
//
//   - dlzd_queue_elisions_total: publication elisions in the lock-free
//     top-word cache (cpq covered-insert and empty-pop fast paths);
//   - dlzd_spin_backoff_total: slow-path lock acquisitions, i.e. blocking
//     acquires that found the lock held (the name predates the removal of
//     the backoff schedule and stays, because dashboards and CI read it);
//   - dlzd_sampler_rerolls_total: sticky sampler rerolls, harvested from
//     each handle pair as it is given back. A dequeue draw that finds its
//     shard empty or locked and an insert whose shard refuses the try-lock
//     both redraw instead of waiting, so this counter, not
//     dlzd_spin_backoff_total, carries shard contention.
func (s *Server) appendMetrics(dst []byte) []byte {
	tenants := s.tenantSnapshot()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })

	type tenantRow struct {
		t   *tenant
		mq  dlz.MQStats
		agg poolAggregate
	}
	var (
		rows                            []tenantRow
		elisions, publications, backoff uint64
		pairs                           int
	)
	for _, t := range tenants {
		st := t.mq.Stats()
		agg := t.poolStats()
		rows = append(rows, tenantRow{t: t, mq: st, agg: agg})
		elisions += st.Elisions
		publications += st.Publications
		backoff += st.LockContended
		pairs += agg.pairs
	}

	var b strings.Builder
	counter := func(name, help string, total uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, total)
	}
	gauge := func(name, help string, total int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, total)
	}
	perTenant := func(name string, value func(tenantRow) uint64) {
		for _, r := range rows {
			fmt.Fprintf(&b, "%s{tenant=%q} %d\n", name, r.t.name, value(r))
		}
	}

	counter("dlzd_queue_elisions_total", "Top-word cache publication elisions across tenant MultiQueues.", elisions)
	perTenant("dlzd_queue_elisions_total", func(r tenantRow) uint64 { return r.mq.Elisions })
	counter("dlzd_queue_publications_total", "Top-word cache publications across tenant MultiQueues.", publications)
	perTenant("dlzd_queue_publications_total", func(r tenantRow) uint64 { return r.mq.Publications })
	counter("dlzd_spin_backoff_total", "Slow-path lock acquisitions: blocking acquires that found the lock held.", backoff)
	perTenant("dlzd_spin_backoff_total", func(r tenantRow) uint64 { return r.mq.LockContended })
	sumCounter := func(name, help string, value func(tenantRow) uint64) {
		var total uint64
		for _, r := range rows {
			total += value(r)
		}
		counter(name, help, total)
		perTenant(name, value)
	}
	sumCounter("dlzd_sampler_rerolls_total", "Sticky sampler rerolls: empty or contended dequeue draws and refused insert publishes.",
		func(r tenantRow) uint64 { return r.t.rerolls.Load() })

	gauge("dlzd_leases_active", "Handle pairs the tenant pools own, idle or borrowed.", pairs)
	perTenant("dlzd_leases_active", func(r tenantRow) uint64 { return uint64(r.agg.pairs) })
	sumCounter("dlzd_rejected_inflight_total", "Requests rejected by the in-flight backpressure budget.",
		func(r tenantRow) uint64 { return r.t.rejectedInflight.Load() })
	sumCounter("dlzd_ops_enqueued_total", "Elements accepted by enqueue-batch.",
		func(r tenantRow) uint64 { return r.t.opsEnqueued.Load() })
	sumCounter("dlzd_ops_dequeued_total", "Elements returned by delete-min-up-to.",
		func(r tenantRow) uint64 { return r.t.opsDequeued.Load() })
	sumCounter("dlzd_ops_counter_adds_total", "Deltas accepted by counter/add-batch.",
		func(r tenantRow) uint64 { return r.t.opsCounterAdds.Load() })

	// Degradation-ladder series (DESIGN.md §10).
	sumCounter("dlzd_rejected_shed_total", "Mutating requests rejected by adaptive load shedding.",
		func(r tenantRow) uint64 { return r.t.rejectedShed.Load() })
	sumCounter("dlzd_deadline_aborts_total", "Handler loops cut short by the per-request deadline.",
		func(r tenantRow) uint64 { return r.t.deadlineAborts.Load() })
	sumCounter("dlzd_panics_recovered_total", "Handler panics absorbed by the recovery envelope.",
		func(r tenantRow) uint64 { return r.t.panicsRecovered.Load() })
	sumCounter("dlzd_repair_failures_total", "Returned handle pairs whose flush exhausted the repair ladder.",
		func(r tenantRow) uint64 { return r.t.repairFailures.Load() })
	var shedTotal int
	for _, row := range rows {
		shedTotal += int(row.t.shedLevel.Load())
	}
	gauge("dlzd_shed_level", "Adaptive shed level (0-3), summed across tenants.", shedTotal)
	perTenant("dlzd_shed_level", func(r tenantRow) uint64 { return uint64(r.t.shedLevel.Load()) })

	// Connection-loop series (DESIGN.md §8). The fallback count is what tells
	// an operator a client's bodies miss the scanner's fast path.
	open, requests := s.connStats()
	gauge("dlzd_conns_open", "Connections the connection loop is serving.", open)
	counter("dlzd_conns_accepted_total", "Connections accepted by the connection loop.", s.connsAccepted.Load())
	counter("dlzd_requests_total", "Requests answered by the pipeline, over either transport.", requests)
	counter("dlzd_wire_decode_fallback_total", "Hot request bodies the scanner declined and encoding/json decoded.",
		s.decodeFallbacks.Load())
	var protocolErrors uint64
	for i := range s.protocolErrors {
		protocolErrors += s.protocolErrors[i].Load()
	}
	counter("dlzd_conn_protocol_errors_total", "Requests the connection loop refused itself, by status.", protocolErrors)
	for i, status := range protocolStatuses {
		fmt.Fprintf(&b, "dlzd_conn_protocol_errors_total{status=\"%d\"} %d\n", status, s.protocolErrors[i].Load())
	}

	// Durability series (DESIGN.md §12). Emitted unconditionally — all zero
	// when the WAL is off — so dashboards and the CI smoke check never need
	// to special-case the configuration.
	floatGauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	var fsyncs, walBytes uint64
	if l := s.log(); l != nil {
		fsyncs = l.Fsyncs()
		walBytes = l.BytesAppended()
	}
	counter("dlzd_wal_fsyncs_total", "Journal fsync calls issued (group commits count once).", fsyncs)
	counter("dlzd_wal_bytes_total", "Bytes appended to the write-ahead journal.", walBytes)
	counter("dlzd_wal_append_errors_total", "Journal appends that failed (each poisons its request's ack).",
		s.walAppendErrors.Load())
	counter("dlzd_snapshots_total", "Point-in-time snapshots written.", s.snapshotsTaken.Load())
	counter("dlzd_recovery_replayed_records", "Journal records replayed on top of the snapshot at last boot.",
		s.replay.Records.Load())
	floatGauge("dlzd_recovery_duration_seconds", "Wall time of journal recovery at last boot.",
		float64(s.recoveryNanos.Load())/1e9)

	return append(dst, b.String()...)
}
