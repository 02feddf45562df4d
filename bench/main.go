// Command bench is the repository's benchmark: four workloads up the
// heap, cpq, core, dlzd, wal ladder, each checked for correctness, with an
// untraced run for the end-to-end metrics and a traced run for the per-layer
// ones. README.md beside this file says what every number means.
//
//	bash bench/run.sh -seed 1                      every workload, both runs, every metric
//	bash bench/run.sh -workload wire-mem -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -compare a.jsonl b.jsonl     apply the bounds to two -out files
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// exitCode is the command's verdict on one run: any failed operation, a check
// violation included, fails the command.
func exitCode(r *result) int {
	if r.Failed > 0 {
		return 1
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload and end with the driver's JSON line (default: all four, both runs)")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Int("seconds", 10, "length of the timed run the operation counts are sized for")
		trace    = fs.Int("trace", 0, "with -workload: 1 runs the traced run and reports the per-layer metrics")
		traceOut = fs.String("trace-out", "", "write the traced run's spans to this file as JSON lines")
		out      = fs.String("out", "", "append each run's result to this file as a JSON line, for -compare")
		compare  = fs.Bool("compare", false, "compare two -out files (baseline, candidate) under the per-metric bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files: baseline candidate")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || fs.NArg() != 0 || (*traceOut != "" && (*workload == "" || *trace != 1)) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1, -trace-out needs -workload and -trace 1, and there are no positional arguments")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, callers: runtime.NumCPU(), scale: 1}

	exit := 0
	report := func(r *result, defs []metricDef) {
		r.printTable(stdout, defs)
		if code := exitCode(r); code != 0 {
			exit = code
		}
		if *out != "" {
			if err := appendResult(*out, r); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				exit = 1
			}
		}
	}
	one := func(name string, traced bool) *result {
		var r *result
		var err error
		if traced {
			r, err = runTraced(name, cfg, *traceOut, stdout)
		} else {
			r, err = runWorkload(name, cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			exit = 1
			return nil
		}
		if traced {
			report(r, perLayer)
		} else {
			report(r, endToEnd)
		}
		return r
	}

	if *workload != "" {
		r := one(*workload, *trace == 1)
		if r == nil {
			return 1
		}
		defs := endToEnd
		if r.Trace {
			defs = perLayer
		}
		line, err := r.driverLine(defs)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return exit
	}
	for _, w := range workloads {
		one(w.name, false)
	}
	for _, w := range workloads {
		one(w.name, true)
	}
	return exit
}
