package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/dlzd"
)

// The benchmark runs from the root of the checkout: it builds ./cmd/dlzd and
// keeps its outputs in .bench_build there. So do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var smoke = config{seed: 7, seconds: 1, callers: 2, scale: 0.01}

// TestSmoke runs every workload's untraced run, checks included, and one
// traced run, which climbs the whole ladder, at a hundredth of a second's
// work: it keeps the harness compiling against the packages it measures and
// its checks live.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		r, err := runWorkload(w.name, smoke)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, r.Failed, r.Attempted, r.Problems)
		}
		if _, err := r.driverLine(endToEnd); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, d := range endToEnd {
			if s, ok := r.Metrics[d.Name]; d.reports(w.name) != ok || (ok && !(s.Value > 0)) {
				t.Errorf("%s: metric %s: reported %v, value %v", w.name, d.Name, ok, s.Value)
			}
		}
		if probe, ok := r.Metrics["probe_us"]; ok != strings.HasPrefix(w.name, "wire-") || (ok && !(probe.Min > 0)) {
			t.Errorf("%s: probe_us: reported %v, smallest segment %v", w.name, ok, probe.Min)
		}
	}
	traceOut := t.TempDir() + "/spans.jsonl"
	r, err := runTraced("wire-wal", smoke, traceOut, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Errorf("traced wire-wal: %d operations failed: %v", r.Failed, r.Problems)
	}
	line, err := r.driverLine(perLayer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(line, []byte(`"correct":true`)) {
		t.Errorf("driver line: %s", line)
	}
	if got := r.Metrics["cmd-dlzd.conns_opened"].Value; got != 1 { // the wire ladder runs at one caller
		t.Errorf("the loopback run opened %v connections for one caller", got)
	}
	spans, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"name":"client.roundtrip"`, `"name":"dlzd.servehttp","id":`, `"parent":"client.roundtrip"`} {
		if !bytes.Contains(spans, []byte(name)) {
			t.Errorf("trace output has no %s", name)
		}
	}
}

// replaySmall sends a small stream to a fresh in-process server and returns
// what the checks need.
func replaySmall(t *testing.T) (*stream, *dlzd.Server, ledger, [numTenants][]uint64) {
	t.Helper()
	s := genStream(3, 2, 200, wireBatch)
	srv, err := newEmbedded("")
	if err != nil {
		t.Fatal(err)
	}
	ep := handlerEndpoint{srv}
	led, err := prefill(ep, s)
	if err != nil {
		t.Fatal(err)
	}
	cs := newCallers(s, nil)
	driveAll(cs, wireTarget{ep}, 0, 1)
	ck := &checker{}
	total, attempted := settle(cs, s, led, ck)
	if ck.failed != 0 || attempted != int64(s.requests()*wireBatch) {
		t.Fatalf("clean replay: %d of %d failed: %v", ck.failed, attempted, ck.problems)
	}
	var dequeued [numTenants][]uint64
	for _, c := range cs {
		for tn := range dequeued {
			dequeued[tn] = append(dequeued[tn], c.dequeued[tn]...)
		}
	}
	return s, srv, total, dequeued
}

// TestCorruptLedgerFails is the demonstration that a failed check fails the
// command: a ledger off by one element, or by one unit of counter weight,
// becomes failed operations, and failed operations become "correct": false
// and a non-zero exit.
func TestCorruptLedgerFails(t *testing.T) {
	s, srv, total, _ := replaySmall(t)
	stats, err := fetchStats(handlerEndpoint{srv}, s)
	if err != nil {
		t.Fatal(err)
	}
	clean := &checker{}
	clean.checkStats("clean", &total, stats)
	if clean.failed != 0 {
		t.Fatalf("an honest ledger failed: %v", clean.problems)
	}
	for name, corrupt := range map[string]func(*ledger){
		"one element never enqueued": func(l *ledger) { l.enqueued[1]++ },
		"one delivery unrecorded":    func(l *ledger) { l.dequeued[0]-- },
		"one unit of counter weight": func(l *ledger) { l.deltaSum[2]++ },
	} {
		bad := total
		corrupt(&bad)
		ck := &checker{}
		ck.checkStats("corrupt", &bad, stats)
		if ck.failed == 0 {
			t.Errorf("%s: the check passed", name)
			continue
		}
		r := newResult("wire-mem", smoke, false)
		r.Attempted = int64(s.requests() * wireBatch)
		for _, d := range endToEnd {
			r.Metrics[d.Name] = summarize(d.Unit, 1)
		}
		r.finish(ck, audit{rankMean: 1, devMax: 1})
		line, err := r.driverLine(endToEnd)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(line, []byte(`"correct":false`)) {
			t.Errorf("%s: driver line %s", name, line)
		}
		if exitCode(r) == 0 {
			t.Errorf("%s: exit code 0", name)
		}
	}
}

func TestDeliveryCheck(t *testing.T) {
	s, _, _, dequeued := replaySmall(t)
	clean := &checker{}
	clean.checkDequeued(s, dequeued)
	if clean.failed != 0 {
		t.Fatalf("honest deliveries failed: %v", clean.problems)
	}
	var from, to int
	for from = range dequeued {
		if len(dequeued[from]) > 0 {
			break
		}
	}
	to = (from + 1) % numTenants
	v := dequeued[from][0]

	twice := dequeued
	twice[from] = append(append([]uint64(nil), dequeued[from]...), v)
	ck := &checker{}
	ck.checkDequeued(s, twice)
	if ck.failed != 1 || !strings.Contains(ck.problems[0], "twice") {
		t.Errorf("a value returned twice: %d failed, %v", ck.failed, ck.problems)
	}

	phantom := dequeued
	phantom[to] = append(append([]uint64(nil), dequeued[to]...), v, uint64(len(s.owner))+5)
	phantom[from] = dequeued[from][1:]
	ck = &checker{}
	ck.checkDequeued(s, phantom)
	if ck.failed != 2 || !strings.Contains(ck.problems[0], "never enqueued") {
		t.Errorf("another tenant's value and an unknown value: %d failed, %v", ck.failed, ck.problems)
	}
}

// TestBodiesAreWhatEncodingJSONWrites holds the hand-written encoders to the
// wire.go types.
func TestBodiesAreWhatEncodingJSONWrites(t *testing.T) {
	items := []dlzd.WireItem{{Priority: 0, Value: 1}, {Priority: 1<<48 + 3, Value: math.MaxUint64}}
	deltas := []uint64{1, 100, math.MaxUint64}
	for _, c := range []struct {
		got  []byte
		want any
	}{
		{appendEnqueueBody(nil, "c0", items), dlzd.EnqueueBatchRequest{Session: "c0", Items: items}},
		{appendDeleteMinBody(nil, "c1", 8), dlzd.DeleteMinRequest{Session: "c1", Max: 8}},
		{appendCounterAddBody(nil, "prefill", deltas), dlzd.CounterAddRequest{Session: "prefill", Deltas: deltas}},
	} {
		want, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("encoded %s, encoding/json writes %s", c.got, want)
		}
	}
	body, err := json.Marshal(dlzd.DeleteMinResponse{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if got := scanValues(body, nil); !reflect.DeepEqual(got, []uint64{1, math.MaxUint64}) {
		t.Errorf("scanValues(%s) = %v", body, got)
	}
}

func TestStreamRepeatsForASeed(t *testing.T) {
	a, b, c := genStream(5, 2, 300, wireBatch), genStream(5, 2, 300, wireBatch), genStream(6, 2, 300, wireBatch)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two streams")
	}
	if bytes.Equal(a.bodies, c.bodies) {
		t.Error("two seeds gave one stream")
	}
	seen := map[uint64]bool{}
	for _, it := range a.items {
		if seen[it.Value] || a.owner[it.Value] == 0 {
			t.Fatalf("value %d is not a unique, owned id", it.Value)
		}
		seen[it.Value] = true
	}
}

func TestSelfTimes(t *testing.T) {
	rows := selfTimes([]span{
		{Name: "client.roundtrip", ID: 1, Start: 0, End: 50_000},
		{Name: "dlzd.servehttp", ID: 1, Parent: "client.roundtrip", Start: 10_000, End: 20_000},
		{Name: "client.roundtrip", ID: 2, Start: 0, End: 70_000},
		{Name: "dlzd.servehttp", ID: 2, Parent: "client.roundtrip", Start: 10_000, End: 40_000},
		{Name: "client.roundtrip", ID: 3, Start: 0, End: 60_000},
		{Name: "dlzd.servehttp", ID: 3, Parent: "client.roundtrip", Start: 10_000, End: 30_000},
	})
	want := []selfRow{
		{Name: "client.roundtrip", Count: 3, DurUs: 60, SelfUs: 40},
		{Name: "dlzd.servehttp", Count: 3, DurUs: 20, SelfUs: 20},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("self times %+v, want %+v", rows, want)
	}
}

func TestQuartileSpreadIsPythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	runs := func(ops ...float64) []result {
		var rs []result
		for _, v := range ops {
			rs = append(rs, result{Workload: "lib-queue", Metrics: map[string]summary{
				"ops_per_s":  summarize("1/s", v),
				"req_p50_us": summarize("us", 1e9/v),
			}})
		}
		return rs
	}
	status := func(base, cand []result, metric string) string {
		for _, v := range compareResults(base, cand) {
			if v.Workload == "lib-queue" && v.Metric == metric {
				return v.Status
			}
		}
		return "absent"
	}
	steady := runs(100, 101, 99, 100, 102, 98)
	if got := status(steady, runs(85, 86, 84, 85, 87, 83), "ops_per_s"); got != "ok" {
		t.Errorf("15 %% slower under a 25 %% bound: %s", got)
	}
	if got := status(steady, runs(70, 71, 69, 70, 72, 68), "ops_per_s"); got != "regressed" {
		t.Errorf("30 %% slower under a 25 %% bound: %s", got)
	}
	if got := status(steady, runs(70, 71, 69, 70, 72, 68), "req_p50_us"); got != "regressed" {
		t.Errorf("latency 43 %% higher under a 25 %% bound: %s", got)
	}
	if got := status(steady, runs(120, 121, 119, 120, 122, 118), "ops_per_s"); got != "ok" {
		t.Errorf("faster: %s", got)
	}
	if got := status(runs(100, 150, 60, 100, 145, 55), steady, "ops_per_s"); got != "unresolved" {
		t.Errorf("a baseline spread wider than the bound: %s", got)
	}
	if got := status(steady, steady, "setup_s"); got != "missing" {
		t.Errorf("a metric neither side measured: %s", got)
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json to the tables in metrics.go
// and workload.go, and to the limits the driver sets on the file.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the benchmark has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	var universal []metricDef
	for _, d := range endToEnd {
		if d.Only == nil {
			universal = append(universal, d)
		}
	}
	if len(file.EndToEnd) != len(universal) {
		t.Fatalf("%d end-to-end metrics, the benchmark reports %d on every workload", len(file.EndToEnd), len(universal))
	}
	for i, m := range file.EndToEnd {
		d := universal[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, metrics.go says %+v", i, m, d)
		}
	}
	if len(file.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, the benchmark reports %d", len(file.PerLayer), len(perLayer))
	}
	for i, m := range file.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || len(m.Name) > 64 || len(m.Unit) > 16 || d.Moves == "" {
			t.Errorf("per-layer %d: %+v, metrics.go says %+v", i, m, d)
		}
	}
}

// TestOnOneCPU checks that the body sees one CPU and one P, and that both the
// affinity mask and GOMAXPROCS are what they were afterwards: the lib
// workloads that follow a wire workload in one process need every CPU back.
func TestOnOneCPU(t *testing.T) {
	before, err := affinity(0)
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	err = onOneCPU(func(cpu int) error {
		inside, err := affinity(0)
		if err != nil {
			return err
		}
		var want cpuMask
		want[cpu/64] = 1 << (cpu % 64)
		if inside != want || runtime.GOMAXPROCS(0) != 1 {
			t.Errorf("inside: mask %x (want CPU %d alone), GOMAXPROCS %d", inside[0], cpu, runtime.GOMAXPROCS(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := affinity(0)
	if err != nil {
		t.Fatal(err)
	}
	if after != before || runtime.GOMAXPROCS(0) != procs {
		t.Errorf("afterwards: mask %x, GOMAXPROCS %d; before: %x, %d", after[0], runtime.GOMAXPROCS(0), before[0], procs)
	}
}
