package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric: its unit, which direction is better and, for
// an end-to-end metric, the share of the baseline's median by which it may
// worsen before -compare calls it a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Only lists the workloads that report the metric; nil means all four.
	Only []string
	// Moves says which end-to-end metric the per-layer metric should move,
	// on which workload (the interaction table of README.md).
	Moves string
}

// endToEnd is what a user of the system sees. The first six are defined on
// every workload and are the end_to_end list of BENCHMARK.json (a test holds
// the two in step); the last two exist only where a journal does, so they
// cannot be in that list, and -compare applies their bounds from here.
//
// The bounds are what this box's run-to-run spread supports (README.md,
// "Run-to-run agreement"): a tenth where ten runs agree within a few per
// cent, a quarter for the rates and latencies, which move with the host's
// slow spells by a tenth between runs and more. req_p99_us could hold no
// bound the driver accepts and is a per-layer metric; the untraced runs still
// print it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "req_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rank_mean", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "dev_max", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25, Only: []string{"wire-wal"}},
	{Name: "wal_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.10, Only: []string{"wire-wal"}},
}

// perLayer is the ladder: one or more numbers per layer boundary, every one
// measured from bench/ by timing calls into the layer's public functions.
var perLayer = []metricDef{
	{Name: "req_p99_us", Unit: "us", Better: "lower", Moves: "the tail behind req_p50_us, on the traced run's untraced twin; no bound holds it"},
	{Name: "heap.batch_ns_per_op", Unit: "ns", Better: "lower", Moves: "ops_per_s on lib-queue; nothing on wire-*"},
	{Name: "cpq.batch_ns_per_op", Unit: "ns", Better: "lower", Moves: "ops_per_s on lib-queue (self = - heap)"},
	{Name: "cpq.lock_contended_per_kop", Unit: "count", Better: "lower", Moves: "ops_per_s on lib-queue at C > 1"},
	{Name: "core.mq_ns_per_op", Unit: "ns", Better: "lower", Moves: "ops_per_s on lib-queue (self = - cpq)"},
	{Name: "core.mq_scaling_x", Unit: "x", Better: "higher", Moves: "Figure 1a; ops_per_s on lib-queue"},
	{Name: "core.mc_scaling_x", Unit: "x", Better: "higher", Moves: "Figure 1a; ops_per_s on lib-counter"},
	{Name: "core.mq_elision_frac", Unit: "frac", Better: "higher", Moves: "ops_per_s on lib-queue"},
	{Name: "core.mq_allocs_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s, peak_rss_mb on lib-queue; must be 0"},
	{Name: "core.mc_allocs_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s, peak_rss_mb on lib-counter; must be 0"},
	{Name: "core.mq_rank_p99", Unit: "count", Better: "lower", Moves: "companion to rank_mean"},
	{Name: "core.mc_dev_mean", Unit: "count", Better: "lower", Moves: "companion to dev_max"},
	{Name: "core.mc_inc_ns_per_op", Unit: "ns", Better: "lower", Moves: "ops_per_s on lib-counter"},
	{Name: "core.mc_read_ns_per_op", Unit: "ns", Better: "lower", Moves: "ops_per_s on lib-counter"},
	{Name: "core.mc_vs_faa_x", Unit: "x", Better: "higher", Moves: "ops_per_s on lib-counter"},
	{Name: "core.apply_us_per_req", Unit: "us", Better: "lower", Moves: "req_p50_us on wire-* by < 2 %: the predicted no-change"},
	{Name: "dlzd.codec_us_per_req", Unit: "us", Better: "lower", Moves: "req_p50_us, ops_per_s on wire-*"},
	{Name: "dlzd.servehttp_us_per_req", Unit: "us", Better: "lower", Moves: "req_p50_us on wire-* (self = - codec - core.apply)"},
	{Name: "dlzd.per_request_us", Unit: "us", Better: "lower", Moves: "fixed cost in req_p50_us on wire-*"},
	{Name: "dlzd.per_item_ns", Unit: "ns", Better: "lower", Moves: "per-item cost in req_p50_us on wire-*"},
	{Name: "dlzd.allocs_per_req", Unit: "count", Better: "lower", Moves: "req_p99_us, peak_rss_mb on wire-*"},
	{Name: "dlzd.alloc_bytes_per_req", Unit: "B", Better: "lower", Moves: "req_p99_us, peak_rss_mb on wire-*"},
	{Name: "dlzd.enqueue_p50_us", Unit: "us", Better: "lower", Moves: "a trade between op types inside req_p50_us"},
	{Name: "dlzd.deletemin_p50_us", Unit: "us", Better: "lower", Moves: "a trade between op types inside req_p50_us"},
	{Name: "dlzd.counteradd_p50_us", Unit: "us", Better: "lower", Moves: "a trade between op types inside req_p50_us"},
	{Name: "dlzd.rejected_per_kreq", Unit: "count", Better: "lower", Moves: "failed operations on wire-*"},
	{Name: "dlzd.servehttp_wal_us_per_req", Unit: "us", Better: "lower", Moves: "req_p50_us on wire-wal only (self = - dlzd.servehttp)"},
	{Name: "wal.append_us.never", Unit: "us", Better: "lower", Moves: "req_p50_us, ops_per_s on wire-wal"},
	{Name: "wal.append_us.interval", Unit: "us", Better: "lower", Moves: "req_p50_us, ops_per_s on wire-wal (the end-to-end policy)"},
	{Name: "wal.append_us.always", Unit: "us", Better: "lower", Moves: "informational: the price of -wal-fsync always"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower", Moves: "wal_bytes_per_op on wire-wal"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower", Moves: "wal_bytes_per_op on wire-wal, at a tenth of its stream"},
	{Name: "wal.fsyncs_per_kreq", Unit: "count", Better: "lower", Moves: "req_p99_us on wire-wal"},
	{Name: "wal.replay_us_per_record", Unit: "us", Better: "lower", Moves: "recovery_s on wire-wal"},
	{Name: "dlzd.restore_us_per_record", Unit: "us", Better: "lower", Moves: "recovery_s on wire-wal"},
	{Name: "dlzd.snapshot_ms", Unit: "ms", Better: "lower", Moves: "recovery_s once snapshots bound replay; informational"},
	{Name: "cmd-dlzd.recovery_us_per_record", Unit: "us", Better: "lower", Moves: "recovery_s on wire-wal, at a tenth of its stream"},
	{Name: "cmd-dlzd.http_self_us_per_req", Unit: "us", Better: "lower", Moves: "req_p50_us, ops_per_s on wire-*; nothing on lib-*"},
	{Name: "cmd-dlzd.boot_ms", Unit: "ms", Better: "lower", Moves: "setup_s, recovery_s on wire-*"},
	{Name: "cmd-dlzd.conns_opened", Unit: "count", Better: "lower", Moves: "generator sanity: equals C"},
	{Name: "bench.servehttp_replay_vs_span_x", Unit: "x", Better: "lower", Moves: "reconciles the replayed rung with the nested span; near 1"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower", Moves: "the benchmark's own noise floor"},
	{Name: "bench.segment_spread_frac", Unit: "frac", Better: "lower", Moves: "the benchmark's own noise floor"},
}

// reports says whether a workload reports the metric.
func (d metricDef) reports(workload string) bool {
	if d.Only == nil {
		return true
	}
	for _, w := range d.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// result is one run of one workload: what -out appends to a file and what
// -compare reads back.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Env       map[string]string  `json:"env"`
}

// printTable writes every metric of a result by name with its unit and the
// segment minimum and maximum beside the median, in the order defs lists them.
func (r *result) printTable(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "%-36s %16s %-6s %s\n", r.Workload, "median", "unit", "segment min .. max")
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
		if s, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %16.6g %-6s %.6g .. %.6g\n", d.Name, s.Value, s.Unit, s.Min, s.Max)
		}
	}
	for _, name := range sortedKeys(r.Metrics) {
		if s := r.Metrics[name]; !listed[name] {
			fmt.Fprintf(w, "  %-34s %16.6g %-6s %.6g .. %.6g (not bounded)\n", name, s.Value, s.Unit, s.Min, s.Max)
		}
	}
	failedFrac := 0.0
	if r.Attempted > 0 {
		failedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-34s %16.6g %-6s (%d of %d operations)\n", "failed_frac", failedFrac, "frac", r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// driverLine is the last line of standard output the driver reads: exactly
// the keys correct, attempted, failed and metrics, each metric a value and a
// unit. defs fixes which metrics go in: the end-to-end list of BENCHMARK.json
// for an untraced run, the per-layer list for a traced one.
func (r *result) driverLine(defs []metricDef) ([]byte, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for _, d := range defs {
		if d.Only != nil {
			continue
		}
		s, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = valueUnit{s.Value, s.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
