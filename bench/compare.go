package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// appendResult appends r to path as one JSON line.
func appendResult(path string, r *result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append to %s: %w", path, err)
	}
	return f.Close()
}

// readResults reads a file of -out lines.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and the third quartile as
// a share of the median, quartiles as Python's statistics.quantiles(xs, n=4)
// gives them; 0 when there are too few values to have quartiles.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// verdict is one workload x metric line of a comparison.
type verdict struct {
	Workload, Metric string
	Base, Cand       float64 // medians
	Worse            float64 // share of the baseline's median by which the candidate is worse; negative is better
	Spread           float64 // the wider of the two sides' quartile spreads
	Bound            float64
	Status           string // ok, regressed, unresolved or missing
}

// compareResults applies every end-to-end metric's bound to the untraced runs
// of two result sets. A metric whose own run-to-run spread is wider than its
// bound is unresolved, not unchanged.
func compareResults(base, cand []result) []verdict {
	values := func(rs []result, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rs {
			if s, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, s.Value)
			}
		}
		return xs
	}
	var out []verdict
	for _, w := range workloads {
		for _, d := range endToEnd {
			if !d.reports(w.name) {
				continue
			}
			a, b := values(base, w.name, d.Name), values(cand, w.name, d.Name)
			v := verdict{Workload: w.name, Metric: d.Name, Bound: d.Bound}
			if len(a) == 0 || len(b) == 0 {
				v.Status = "missing"
				out = append(out, v)
				continue
			}
			v.Base, v.Cand = median(a), median(b)
			v.Worse = (v.Cand - v.Base) / v.Base
			if d.Better == "higher" {
				v.Worse = -v.Worse
			}
			v.Spread = quartileSpread(a)
			if s := quartileSpread(b); s > v.Spread {
				v.Spread = s
			}
			switch {
			case v.Spread > d.Bound:
				v.Status = "unresolved"
			case v.Worse > d.Bound:
				v.Status = "regressed"
			default:
				v.Status = "ok"
			}
			out = append(out, v)
		}
	}
	return out
}

// compareFiles prints the comparison of two -out files and returns the exit
// code: 0 only when every workload x metric is ok.
func compareFiles(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cand, err := readResults(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	exit := 0
	fmt.Fprintf(stdout, "%-12s %-18s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "spread", "bound", "status")
	for _, v := range compareResults(base, cand) {
		fmt.Fprintf(stdout, "%-12s %-18s %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
			v.Workload, v.Metric, v.Base, v.Cand, 100*v.Worse, 100*v.Spread, 100*v.Bound, v.Status)
		if v.Status != "ok" {
			exit = 1
		}
	}
	return exit
}
