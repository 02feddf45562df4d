package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads names the four workloads, bottom of the stack first, with the
// reason each exists.
var workloads = []struct{ name, why string }{
	{"lib-queue", "C goroutines alternate EnqueuePriority/Dequeue on one MultiQueue: heap, cpq and core do all the work, dlzd, wal and the socket none"},
	{"lib-counter", "C goroutines Increment one MultiCounter, reading every 64th op: the same core.Sampler through the other structure"},
	{"wire-mem", "one keep-alive client and cmd/dlzd on one CPU, loopback, the Zipf mix: net/http, JSON and the lease path do the work, core under 2 %"},
	{"wire-wal", "the identical request stream with the journal on, then SIGKILL and restart: the pair prices durability, the kill prices recovery"},
}

// Work per second of -seconds. Counts, not durations, size a run, so that a
// seed fixes the work exactly and a run is the same work on every commit; the
// constants are what this repository does per second on the 2-vCPU box the
// benchmark was defined on, so that a run measures for about -seconds.
const (
	libQueueOpsPerSecond   = 18e6
	libCounterOpsPerSecond = 200e6
	wireRequestsPerSecond  = 22e3 // 24 k/s, less the twelfth of a run that goes to the speed probe
	warmupShare            = 0.05 // of the timed work, run before it and charged to set-up
	setupRepeats           = 3    // set-ups per run; setup_s is their median
	tracedShare            = 0.1  // a traced run sends this share of the stream
)

// config is what a run is given.
type config struct {
	seed    uint64
	seconds int
	callers int // C: closed-loop callers, goroutines or connections; nproc
	// scale multiplies every operation count and audit size; 1 outside the
	// smoke test, which runs the whole harness at a thousandth.
	scale float64
}

// prefill is lib-queue's standing content: 2^20 elements at full scale.
func (cfg config) prefill() int {
	n := int(libPrefill * cfg.scale)
	if n < structM*structBatch {
		n = structM * structBatch
	}
	return n
}

// environment records where the numbers were taken.
func environment() map[string]string {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		kernel = []byte("unknown")
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"wal_fs":     fsType(buildDir),
	}
}

func newResult(workload string, cfg config, trace bool) *result {
	return &result{Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace,
		Metrics: map[string]summary{}, Env: environment()}
}

// finish copies the checker's verdict and the quality audit into the result.
func (r *result) finish(ck *checker, a audit) {
	r.Failed, r.Problems = ck.failed, ck.problems
	r.Metrics["rank_mean"] = summarize("count", a.rankMean)
	r.Metrics["dev_max"] = summarize("count", a.devMax)
}

// runWorkload is one untraced run: set-up (several times), the timed run,
// the checks, and every end-to-end metric.
func runWorkload(name string, cfg config) (*result, error) {
	switch name {
	case "lib-queue":
		return runLib(name, cfg, libQueueOpsPerSecond, func() libLoad { return newQueueLoad(cfg.seed, cfg.callers, cfg.prefill()) })
	case "lib-counter":
		return runLib(name, cfg, libCounterOpsPerSecond, func() libLoad { return newCounterLoad(cfg.seed, cfg.callers) })
	case "wire-mem", "wire-wal":
		var r *result
		cfg.callers = 1 // C is the number of CPUs the run uses
		err := onOneCPU(func(cpu int) (err error) {
			if r, err = runWire(name, cfg, name == "wire-wal"); err == nil {
				r.Env["pinned_cpu"] = fmt.Sprint(cpu)
			}
			return err
		})
		return r, err
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// blocksPerCaller turns a rate and the run's length into each caller's share
// of blocks, at least one per segment.
func blocksPerCaller(opsPerSecond float64, cfg config, share float64) int {
	n := int(opsPerSecond * float64(cfg.seconds) * cfg.scale * share / blockOps / float64(cfg.callers))
	if n < segments {
		n = segments
	}
	return n
}

// libMetrics fills the metrics the lib workloads share from the timed run's
// block latencies.
func (r *result) libMetrics(lat [][]uint32, setups []float64) error {
	// Read first: the summaries below sort copies of the latencies, and that
	// garbage is the benchmark's, not the workload's.
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	r.Metrics["peak_rss_mb"] = summarize("MB", rss)
	r.Metrics["setup_s"] = summarize("s", setups...)
	r.requestMetrics(lat, blockOps)
	for _, l := range lat {
		r.Attempted += int64(len(l)) * blockOps
	}
	return nil
}

// libLoad is what the two lib workloads have in common: callers that run
// blocks of operations, and a conservation check afterwards.
type libLoad interface {
	run(blocks int, rec *recorder) [][]uint32
	check(ck *checker)
}

// runLib is the untraced run of a lib workload: build and warm up the load
// (several times, for setup_s), run the timed blocks, check.
func runLib(name string, cfg config, opsPerSecond float64, build func() libLoad) (*result, error) {
	r, ck := newResult(name, cfg, false), &checker{}
	var load libLoad
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		load = nil
		runtime.GC() // the last set-up's load is garbage: it must not count toward peak_rss_mb
		start := time.Now()
		load = build()
		load.run(blocksPerCaller(opsPerSecond, cfg, warmupShare), nil)
		setups = append(setups, time.Since(start).Seconds())
	}
	lat := load.run(blocksPerCaller(opsPerSecond, cfg, 1), nil)
	load.check(ck)
	if err := r.libMetrics(lat, setups); err != nil {
		return nil, err
	}
	r.finish(ck, runAudit(cfg, ck))
	return r, nil
}

// wireRequests is each caller's share of a wire stream covering share of the
// run, warm-up included.
func wireRequests(cfg config, share float64) int {
	n := int(wireRequestsPerSecond * float64(cfg.seconds) * cfg.scale * share * (1 + warmupShare) / float64(cfg.callers))
	if n < 4*segments {
		n = 4 * segments
	}
	return n
}

// warmupEnd is the fraction of a caller's stream that is warm-up.
const warmupEnd = warmupShare / (1 + warmupShare)

// wireRig is a spawned daemon with its stream prefilled and its callers
// warmed up: everything setup_s covers on a wire workload.
type wireRig struct {
	d      *daemon
	probe  *probeServer
	ep     httpEndpoint
	s      *stream
	cs     []*caller
	led    ledger // what prefill was acknowledged
	walDir string
	bin    string
}

// setupWire builds the daemon, generates the stream, boots the daemon to
// /readyz, prefills every tenant and warms the callers up.
func setupWire(cfg config, perCaller int, wal bool) (*wireRig, error) {
	rig := &wireRig{}
	var err error
	if rig.bin, err = buildDaemon(); err != nil {
		return nil, err
	}
	rig.s = genStream(cfg.seed, cfg.callers, perCaller, wireBatch)
	if wal {
		scratch, err := scratchDir()
		if err != nil {
			return nil, err
		}
		rig.walDir = filepath.Join(scratch, "wal")
	}
	if _, err := rig.boot(); err != nil {
		rig.teardown()
		return nil, err
	}
	if rig.led, err = prefill(rig.ep, rig.s); err != nil {
		rig.teardown()
		return nil, err
	}
	if rig.probe, err = startProbeServer(); err != nil {
		rig.teardown()
		return nil, err
	}
	rig.cs = newCallers(rig.s, nil)
	rig.probe.attach(rig.cs)
	driveAll(rig.cs, wireTarget{rig.ep}, 0, warmupEnd)
	return rig, nil
}

// boot spawns the daemon on a fresh port and waits for /readyz. With a
// journal directory left by a killed daemon, that wait is the recovery.
func (rig *wireRig) boot() (time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return 0, err
	}
	if rig.d, err = spawnDaemon(rig.bin, addr, rig.walDir); err != nil {
		return 0, err
	}
	rig.ep = httpEndpoint{rig.d.addr}
	return rig.d.waitFor("/readyz")
}

// stop kills the daemon and drops its connections; the journal stays.
func (rig *wireRig) stop() {
	hangUpAll(rig.cs)
	if rig.d != nil {
		rig.d.kill()
		rig.d = nil
	}
}

// teardown stops the daemon and the probe server and removes the journal.
func (rig *wireRig) teardown() {
	rig.stop()
	if rig.probe != nil {
		rig.probe.stop()
		rig.probe = nil
	}
	if rig.walDir != "" {
		_ = os.RemoveAll(filepath.Dir(rig.walDir)) // scratch space; a leftover is harmless
	}
}

// auditDaemon compares the daemon's audit surface with the client's ledger.
func (rig *wireRig) auditDaemon(when string, led *ledger, ck *checker) error {
	stats, err := fetchStats(rig.ep, rig.s)
	if err != nil {
		return err
	}
	ck.checkStats(when, led, stats)
	return nil
}

func runWire(name string, cfg config, wal bool) (*result, error) {
	r, ck := newResult(name, cfg, false), &checker{}
	perCaller := wireRequests(cfg, 1)
	var rig *wireRig
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			rig.teardown()
		}
		start := time.Now()
		var err error
		if rig, err = setupWire(cfg, perCaller, wal); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer rig.teardown()
	r.Metrics["setup_s"] = summarize("s", setups...)

	lat := driveAll(rig.cs, wireTarget{rig.ep}, warmupEnd, 1)
	r.wireMetrics(lat, probeTimes(rig.cs))

	checkDials(rig.cs, ck)
	total, attempted := settle(rig.cs, rig.s, rig.led, ck)
	r.Attempted = attempted
	if err := rig.auditDaemon("after the run", &total, ck); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(rig.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if wal {
		// SIGKILL after the last acknowledgement, sessions still open: the
		// journal holds exactly the acknowledged requests, so the restart
		// replays the same records on every run of a seed.
		rig.stop()
		journal, err := dirBytes(rig.walDir)
		if err != nil {
			return nil, err
		}
		acked := float64(attempted - ck.failed)
		for t := range rig.led.enqueued {
			acked += float64(rig.led.enqueued[t])
		}
		r.Metrics["wal_bytes_per_op"] = summarize("B", float64(journal)/acked)
		// A recovered daemon journals nothing until it is sent something,
		// so killing it again leaves the same journal: recover several
		// times and report the median.
		var recoveries []float64
		for i := 0; i < setupRepeats; i++ {
			rig.stop()
			recovery, err := rig.boot()
			if err != nil {
				return nil, err
			}
			recoveries = append(recoveries, recovery.Seconds())
			if err := rig.auditDaemon("after recovery", &total, ck); err != nil {
				return nil, err
			}
			recovered, err := peakRSSMB(rig.d.cmd.Process.Pid)
			if err != nil {
				return nil, err
			}
			if recovered > rss {
				rss = recovered
			}
		}
		r.Metrics["recovery_s"] = summarize("s", recoveries...)
	}
	r.Metrics["peak_rss_mb"] = summarize("MB", rss)
	r.finish(ck, runAudit(cfg, ck))
	return r, nil
}
