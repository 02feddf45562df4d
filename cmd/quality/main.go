// Command quality regenerates Figure 1(b): the quality of the MultiCounter
// in a single-threaded execution — the value returned by Read over time
// against the true increment count, and the maximum gap between bins over
// time — for any (choices, stickiness, batch) setting, with a closing
// verdict scoring the mean deviation against the O(m·log m) envelope of
// Theorem 6.1.
//
// With -queue it instead measures the MultiQueue's dequeue rank-error
// distribution for a configurable (choices, stickiness, batch) setting against the O(m·log m) envelope of Theorem 7.1 — the quality
// re-verification that must accompany any fast-path change (the
// sticky/batched mode trades quality for throughput, and this is where the
// trade is audited).
//
// The paper measures quality single-threaded because "it is not clear how to
// order the concurrent read steps"; core's TestDistributionalLinearizability*
// tests provide the concurrent counterpart via explicit linearization stamps.
//
// The command exits 1 when the measured mean exceeds the envelope, so it can
// gate scripts.
//
// Usage:
//
//	quality [-m 64] [-incs 1000000] [-samples 50] [-choices 2] [-stickiness 1] [-batch 1] [-csv]
//	quality -queue [-m 64] [-ops 200000] [-choices 2] [-stickiness 8] [-batch 8] [-csv]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dlin"
	"repro/internal/quality"
)

// The usage lines, mirrored from the package comment; printed with every
// flag-validation failure so a bad invocation in a script log is
// self-explaining.
const usageLines = "usage: quality [-m N] [-incs N] [-samples N] [-choices d] [-stickiness s] [-batch k] [-csv] [-seed n]\n" +
	"       quality -queue [-m N] [-ops N] [-choices d] [-stickiness s] [-batch k] [-csv] [-seed n]"

// Flags each mode accepts beyond the always-shared set (m, choices,
// stickiness, batch, csv, seed and the -queue selector itself). A flag
// set on the command line but absent from the selected mode's row is
// rejected — before this check a counter run invoked with, say, -ops 1000
// silently measured the default configuration instead, the worst kind of
// CLI bug for a tool whose output gates scripts.
var (
	sharedFlags = []string{"m", "choices", "stickiness", "batch", "csv", "seed", "queue"}
	modeFlags   = map[string][]string{
		"counter": {"incs", "samples"},
		"queue":   {"ops"},
	}
)

// validateModeFlags rejects explicitly-set flags the selected mode ignores.
// set holds the flag names the command line actually mentioned
// (flag.Visit), so mode-specific defaults never trip the check.
func validateModeFlags(mode string, set map[string]bool) error {
	allowed := map[string]bool{}
	for _, name := range sharedFlags {
		allowed[name] = true
	}
	for _, name := range modeFlags[mode] {
		allowed[name] = true
	}
	var bad []string
	for name := range set {
		if !allowed[name] {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	modeName := "-" + mode + " mode"
	if mode == "counter" {
		modeName = "counter mode (without -queue)"
	}
	return fmt.Errorf("quality: flag(s) %s invalid in %s", strings.Join(bad, " "), modeName)
}

func main() {
	m := flag.Int("m", 64, "number of counters (or queues with -queue)")
	incs := flag.Int64("incs", 1_000_000, "total increments")
	samples := flag.Int64("samples", 50, "number of sample points")
	queue := flag.Bool("queue", false, "measure MultiQueue dequeue rank error instead of counter quality")
	ops := flag.Int("ops", 200_000, "enqueue+dequeue pairs for -queue")
	choices := flag.Int("choices", 2, "random choices d per increment (or dequeue with -queue)")
	stickiness := flag.Int("stickiness", 1, "operation stickiness window")
	batch := flag.Int("batch", 1, "batching factor")
	csv := flag.Bool("csv", false, "emit CSV instead of markdown")
	seed := flag.Uint64("seed", 7, "PRNG seed")
	flag.Parse()

	mode := "counter"
	if *queue {
		mode = "queue"
	}
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if err := validateModeFlags(mode, setFlags); err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, usageLines)
		os.Exit(2)
	}
	if *m < 1 {
		fmt.Fprintln(os.Stderr, "quality: -m must be >= 1")
		os.Exit(2)
	}
	if *choices < 1 {
		fmt.Fprintln(os.Stderr, "quality: -choices must be >= 1")
		os.Exit(2)
	}
	if *stickiness < 0 || *batch < 0 {
		fmt.Fprintln(os.Stderr, "quality: -stickiness and -batch must be >= 0")
		os.Exit(2)
	}
	if *queue {
		if *ops < 1 {
			fmt.Fprintln(os.Stderr, "quality: -ops must be >= 1")
			os.Exit(2)
		}
		if !runQueueQuality(*m, *ops, *choices, *stickiness, *batch, *seed, *csv) {
			os.Exit(1)
		}
		return
	}

	if *incs < 1 || *samples < 1 {
		fmt.Fprintln(os.Stderr, "quality: -incs and -samples must be >= 1")
		os.Exit(2)
	}
	if !runCounterQuality(*m, *incs, *samples, *choices, *stickiness, *batch, *seed, *csv) {
		os.Exit(1)
	}
}

// runCounterQuality drives a single-threaded MultiCounter handle (with the
// full sticky/batched configuration) through the shared deviation
// measurement (quality.MeasureCounterDeviation), tabulating the Figure 1(b)
// time series from its sample callback and closing with the envelope verdict
// on the mean absolute deviation. The verdict goes to stderr so the table —
// a purely numeric time series — stays machine-parseable under -csv. Reports
// whether the mean stayed inside the envelope.
func runCounterQuality(m int, incs, samples int64, choices, stickiness, batch int, seed uint64, csv bool) bool {
	mc := core.NewMultiCounterConfig(core.MultiCounterConfig{
		Topology: core.Topology{InitialM: m},
		Choices:  choices, Stickiness: stickiness, Batch: batch,
	})
	tb := newTable(
		fmt.Sprintf("Figure 1(b): MultiCounter quality (single thread, m=%d, d=%d, s=%d, k=%d)",
			m, mc.Choices(), mc.Stickiness(), mc.Batch()),
		"increments", "read-value", "abs-error", "max-gap", "envelope(m log m)")
	envelope := dlin.Envelope(m)
	dev := quality.MeasureCounterDeviation(mc.NewHandle(seed), int(incs), int(samples),
		func(issued, read, absErr, gap uint64) {
			tb.add(issued, read, absErr, gap, envelope)
		})
	within := dev.MeanAbsError <= envelope
	verdict := "PASS"
	if !within {
		verdict = "FAIL"
	}
	tb.write(os.Stdout, csv)
	fmt.Fprintf(os.Stderr, "mean-within-envelope: %s (mean %.2f, max %d, max-gap %d, envelope %.0f)\n",
		verdict, dev.MeanAbsError, dev.MaxAbsError, dev.MaxGap, envelope)
	return within
}

// runQueueQuality drives a single-threaded sticky/batched MultiQueue through
// steady-state enqueue+dequeue pairs over a standing buffer and measures each
// dequeue's rank error (0 = exact minimum) with a Fenwick tree over the
// logically enqueued labels, exactly like the dlin queue-spec replay. It
// reports the distribution against Theorem 7.1's scales and returns whether
// the measured mean lies inside the O(m·log m) envelope.
func runQueueQuality(m, ops, choices, stickiness, batch int, seed uint64, csv bool) bool {
	q := core.NewMultiQueue(core.MultiQueueConfig{
		Topology: core.Topology{InitialM: m},
		Choices:  choices, Stickiness: stickiness, Batch: batch,
	})
	sample := quality.MeasureDequeueRank(q.NewHandle(seed+1), 64*m, ops)
	envelope := dlin.Envelope(m)
	mean := sample.Mean()
	within := mean <= envelope
	verdict := "PASS"
	if !within {
		verdict = "FAIL"
	}
	// Report the normalized knobs (0 becomes 1), not the raw flags, so the
	// header names the configuration actually measured.
	tb := newTable(
		fmt.Sprintf("MultiQueue dequeue rank error (m=%d, d=%d, stickiness=%d, batch=%d, single thread)",
			m, q.Choices(), q.Stickiness(), q.Batch()),
		"metric", "value", "theory-scale")
	tb.add("mean", mean, fmt.Sprintf("O(m)=%d", m))
	tb.add("p50", sample.Quantile(0.5), "")
	tb.add("p99", sample.Quantile(0.99), "")
	tb.add("p99.9", sample.Quantile(0.999), fmt.Sprintf("O(m log m)=%.0f", envelope))
	tb.add("max", sample.Max(), "")
	tb.add("mean-within-envelope", verdict, fmt.Sprintf("mean %.2f vs m·log m = %.0f", mean, envelope))
	tb.write(os.Stdout, csv)
	return within
}

// table is an ordered grid of output cells, rendered as markdown or CSV.
type table struct {
	title   string
	columns []string
	rows    [][]string
}

func newTable(title string, columns ...string) *table {
	return &table{title: title, columns: columns}
}

// add appends a row; float64 cells print with %.4g, the rest with %v.
func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		if v, ok := c.(float64); ok {
			row[i] = fmt.Sprintf("%.4g", v)
		} else {
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) write(w io.Writer, csv bool) {
	if csv {
		t.writeCSV(w)
	} else {
		t.writeMarkdown(w)
	}
}

// writeMarkdown renders the table as GitHub-flavored markdown.
func (t *table) writeMarkdown(w io.Writer) {
	if t.title != "" {
		fmt.Fprintf(w, "### %s\n\n", t.title)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.columns, " | "))
	fmt.Fprintf(w, "|%s\n", strings.Repeat(" --- |", len(t.columns)))
	for _, r := range t.rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	fmt.Fprintln(w)
}

// writeCSV renders the table as CSV, header row first.
func (t *table) writeCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.columns, ","))
	for _, r := range t.rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}
