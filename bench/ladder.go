package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/dlz"
	"repro/dlzd"
	"repro/internal/cpq"
	"repro/internal/heap"
	"repro/internal/rng"
	"repro/internal/wal"
)

// runTraced is the traced run: the selected workload over a tenth of its
// stream, once with spans and once without (their difference is the tracing
// overhead), and every rung of the ladder. Nothing below dlzd.Server can be
// wrapped in a span from outside, so the rungs beneath it replay the same
// stream at each boundary, and a rung's self time is its time minus the rung
// beneath it. End-to-end metrics never come from here.
func runTraced(name string, cfg config, traceOut string, stdout io.Writer) (*result, error) {
	r, ck := newResult(name, cfg, true), &checker{}
	lib, err := libLadder(r, cfg, ck, name)
	if err != nil {
		return nil, err
	}
	wire, err := wireLadder(r, cfg, ck, name)
	if err != nil {
		return nil, err
	}
	pair := lib
	if pair == nil {
		pair = wire
	}
	if pair == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	untraced, traced := rateSummary("1/s", pair.untraced, 1), rateSummary("1/s", pair.traced, 1)
	r.Metrics["bench.trace_overhead_frac"] = summarize("frac", 1-traced.Value/untraced.Value)
	r.Metrics["bench.segment_spread_frac"] = summarize("frac", untraced.spread())
	r.Metrics["req_p99_us"] = latencySummary(pair.untraced, 0.99, nil)
	printSelfTimes(stdout, name+" traced", selfTimes(pair.spans))
	if traceOut != "" {
		if err := writeSpans(traceOut, pair.spans); err != nil {
			return nil, err
		}
	}
	r.Failed, r.Problems = ck.failed, ck.problems
	return r, nil
}

// tracedPair is one workload run twice over a tenth of its stream: with spans
// and without.
type tracedPair struct {
	traced, untraced [][]uint32
	spans            []span
}

// timeSegments runs body once per segment and summarizes the time each call
// took per unit of work, in nanoseconds.
func timeSegments(units float64, body func()) summary {
	var vals []float64
	for k := 0; k < segments; k++ {
		start := time.Now()
		body()
		vals = append(vals, float64(time.Since(start))/units)
	}
	return summarize("ns", vals...)
}

// mallocs counts the heap allocations and bytes body makes.
func mallocs(body func()) (count, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// libLadder measures heap, cpq and core from below, each at the size and the
// batch it has inside lib-queue, and core's two structures at one caller and
// at C. It returns the traced pair when name is a lib workload.
func libLadder(r *result, cfg config, ck *checker, name string) (*tracedPair, error) {
	var pair *tracedPair

	// heap and cpq: one shard of lib-queue's standing content, batches of k.
	const perShard = libPrefill / structM
	const rounds = 1 << 15 // per segment: 2^15 batches in and out
	src := rng.NewXoshiro256(cfg.seed)
	items := make([]heap.Item, perShard+rounds*structBatch)
	for i := range items {
		items[i] = heap.Item{Priority: src.Next() >> 16, Value: uint64(i)}
	}
	out := make([]heap.Item, 0, structBatch)
	h := heap.NewBinary(perShard)
	h.PushBatch(items[:perShard])
	r.Metrics["heap.batch_ns_per_op"] = timeSegments(2*rounds*structBatch, func() {
		for i := perShard; i < len(items); i += structBatch {
			h.PushBatch(items[i : i+structBatch])
			out, _, _ = h.PopBatch(structBatch, out[:0])
		}
	})
	var backing cpq.Backing // the zero backing, as everywhere in the benchmark
	q := cpq.New(backing, perShard, cfg.seed)
	q.AddBatch(items[:perShard])
	r.Metrics["cpq.batch_ns_per_op"] = timeSegments(2*rounds*structBatch, func() {
		for i := perShard; i < len(items); i += structBatch {
			q.AddBatch(items[i : i+structBatch])
			out = q.DeleteMinUpTo(structBatch, out[:0])
		}
	})

	// core, queue side: one handle, then C.
	one := cfg
	one.callers = 1
	blocks1 := blocksPerCaller(libQueueOpsPerSecond, one, tracedShare/float64(cfg.callers))
	single := newQueueLoad(cfg.seed, 1, cfg.prefill())
	single.run(blocks1/4, nil)
	var lat1 [][]uint32
	allocs, _ := mallocs(func() { lat1 = single.run(blocks1, nil) })
	single.check(ck)
	r.Metrics["core.mq_ns_per_op"] = callerTimeSummary("ns", lat1, blockOps, 1)
	r.Metrics["core.mq_allocs_per_op"] = summarize("count", allocs/float64(blocks1*blockOps))

	blocksC := blocksPerCaller(libQueueOpsPerSecond, cfg, tracedShare)
	many := newQueueLoad(cfg.seed, cfg.callers, cfg.prefill())
	many.run(blocksC/4, nil)
	before := many.q.Stats()
	latC := many.run(blocksC, nil)
	after := many.q.Stats()
	ops := float64(cfg.callers * blocksC * blockOps)
	r.Metrics["cpq.lock_contended_per_kop"] = summarize("count", float64(after.LockContended-before.LockContended)/ops*1e3)
	elided, published := float64(after.Elisions-before.Elisions), float64(after.Publications-before.Publications)
	r.Metrics["core.mq_elision_frac"] = summarize("frac", elided/(elided+published))
	r.Metrics["core.mq_scaling_x"] = summarize("x", rateSummary("1/s", latC, blockOps).Value/rateSummary("1/s", lat1, blockOps).Value)
	if name == "lib-queue" {
		rec := newRecorder()
		pair = &tracedPair{untraced: latC, traced: many.run(blocksC, rec), spans: rec.all()}
	}
	many.check(ck)

	// core, counter side: increments and reads apart, then the workload's
	// loop at one caller, at C, and on the exact fetch-and-add word at C.
	const loop = 1 << 22
	handle := newCounter().NewHandle(cfg.seed)
	r.Metrics["core.mc_inc_ns_per_op"] = timeSegments(loop, func() {
		for i := 0; i < loop; i++ {
			handle.Increment()
		}
	})
	var sink uint64
	r.Metrics["core.mc_read_ns_per_op"] = timeSegments(loop, func() {
		for i := 0; i < loop; i++ {
			sink += handle.Read()
		}
	})
	_ = sink // the reads are kept by the calls themselves: Read loads atomically

	cblocks1 := blocksPerCaller(libCounterOpsPerSecond, one, tracedShare/float64(cfg.callers))
	csingle := newCounterLoad(cfg.seed, 1)
	csingle.run(cblocks1/4, nil)
	var clat1 [][]uint32
	allocs, _ = mallocs(func() { clat1 = csingle.run(cblocks1, nil) })
	csingle.check(ck)
	r.Metrics["core.mc_allocs_per_op"] = summarize("count", allocs/float64(cblocks1*blockOps))

	cblocksC := blocksPerCaller(libCounterOpsPerSecond, cfg, tracedShare)
	cmany := newCounterLoad(cfg.seed, cfg.callers)
	cmany.run(cblocksC/4, nil)
	clatC := cmany.run(cblocksC, nil)
	rateC := rateSummary("1/s", clatC, blockOps).Value
	r.Metrics["core.mc_scaling_x"] = summarize("x", rateC/rateSummary("1/s", clat1, blockOps).Value)
	r.Metrics["core.mc_vs_faa_x"] = summarize("x", rateC/rateSummary("1/s", faaRun(cfg.callers, cblocksC), blockOps).Value)
	if name == "lib-counter" {
		rec := newRecorder()
		pair = &tracedPair{untraced: clatC, traced: cmany.run(cblocksC, rec), spans: rec.all()}
	}
	cmany.check(ck)

	a := runAudit(cfg, ck)
	r.Metrics["core.mq_rank_p99"] = summarize("count", a.rankP99)
	r.Metrics["core.mc_dev_mean"] = summarize("count", a.devMean)
	for _, l := range [][][]uint32{lat1, latC, clat1, clatC} {
		for _, c := range l {
			r.Attempted += int64(len(c)) * blockOps
		}
	}
	return pair, nil
}

// embeddedConfig is cmd/dlzd's default configuration as far as the benchmark
// may name it: m, d, s, k and the in-flight budget. Backing and affinity stay
// at the library's zero values, so the embedded server differs from the
// binary by -affinity 0.5 and nothing else.
func embeddedConfig(walDir string) dlzd.Config {
	cfg := dlzd.Config{Queues: structM, Choices: structChoices, Stickiness: structStickiness, Batch: structBatch, MaxInFlight: 256}
	if walDir != "" {
		cfg.Durability = &dlzd.Durability{Dir: walDir, Fsync: wal.FsyncInterval, SnapshotBytes: -1}
	}
	return cfg
}

// newEmbedded returns a recovered (so ready) in-process server.
func newEmbedded(walDir string) (*dlzd.Server, error) {
	srv := dlzd.New(embeddedConfig(walDir))
	if _, err := srv.Recover(); err != nil {
		return nil, err
	}
	return srv, nil
}

// spanHandler stands in front of the embedded server and records a
// dlzd.servehttp span, child of the client's round trip, for every request
// that carries an id.
type spanHandler struct {
	next http.Handler
	rec  *recorder
	log  *spanLog
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r) // prefill and control requests carry no id
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.log.add(span{Name: "dlzd.servehttp", ID: id, Parent: "client.roundtrip", Start: h.rec.since(start), End: h.rec.since(time.Now())})
}

// loopbackRun serves the stream from an embedded server on a loopback socket:
// the wire workloads' traced form. With a recorder every request gets a
// client.roundtrip span and a nested dlzd.servehttp span.
type loopbackRun struct {
	lat   [][]uint32
	cs    []*caller
	dials int
}

func runLoopback(s *stream, walDir string, rec *recorder, ck *checker) (*loopbackRun, error) {
	srv, err := newEmbedded(walDir)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var handler http.Handler = srv
	if rec != nil {
		handler = &spanHandler{next: srv, rec: rec, log: rec.newLog()}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // always ErrServerClosed, from the Close below
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	ep := httpEndpoint{ln.Addr().String()}
	led, err := prefill(ep, s)
	if err != nil {
		return nil, err
	}
	run := &loopbackRun{cs: newCallers(s, rec)}
	defer hangUpAll(run.cs)
	driveAll(run.cs, wireTarget{ep}, 0, warmupEnd)
	rec.reset() // warm-up is not traced
	run.lat = driveAll(run.cs, wireTarget{ep}, warmupEnd, 1)
	run.dials = checkDials(run.cs, ck)
	total, _ := settle(run.cs, s, led, ck)
	stats, err := fetchStats(ep, s)
	if err != nil {
		return nil, err
	}
	ck.checkStats("after the loopback run", &total, stats)
	return run, nil
}

// applyTarget is the rung beneath dlzd: the stream's operations applied
// straight to dlz handles, one queue and one counter per tenant, one handle
// pair per caller and tenant, as the daemon's leases hold them.
type applyTarget struct {
	seed uint64
	mq   [numTenants]*dlz.MultiQueue
	mc   [numTenants]*dlz.MultiCounter
	mqh  [][numTenants]*dlz.MQHandle
	ch   [][numTenants]*dlz.Handle
}

func newApplyTarget(seed uint64, s *stream) (*applyTarget, ledger) {
	t := &applyTarget{seed: seed, mqh: make([][numTenants]*dlz.MQHandle, len(s.callers)), ch: make([][numTenants]*dlz.Handle, len(s.callers))}
	var led ledger
	for i := range t.mq {
		t.mq[i], t.mc[i] = newQueue(seed+uint64(i)), newCounter()
	}
	for i := range s.prefill {
		r := &s.prefill[i]
		h := t.mq[r.tenant].NewHandle(seed + uint64(1000+i))
		for _, it := range s.itemsOf(r) {
			h.EnqueuePriority(it.Priority, it.Value)
		}
		h.Close()
		led.enqueued[r.tenant] += int64(r.n)
	}
	return t, led
}

func (t *applyTarget) do(c *caller, r *request) (int, error) {
	if t.mqh[c.idx][r.tenant] == nil {
		// The lease: made on a session's first request to a tenant, on the
		// goroutine that carries the request.
		handleSeed := t.seed + uint64(100*int(r.tenant)+c.idx)
		t.mqh[c.idx][r.tenant] = t.mq[r.tenant].NewHandle(handleSeed)
		t.ch[c.idx][r.tenant] = t.mc[r.tenant].NewHandle(handleSeed)
	}
	switch r.op {
	case opEnqueue:
		h := t.mqh[c.idx][r.tenant]
		for _, it := range c.s.itemsOf(r) {
			h.EnqueuePriority(it.Priority, it.Value)
		}
	case opDeleteMin:
		h := t.mqh[c.idx][r.tenant]
		for i := 0; i < int(r.n); i++ {
			it, ok := h.Dequeue()
			if !ok {
				break
			}
			c.values = append(c.values, it.Value)
		}
		return len(c.values), nil
	case opCounterAdd:
		h := t.ch[c.idx][r.tenant]
		for _, d := range c.s.deltasOf(r) {
			h.Add(d)
		}
	}
	return int(r.n), nil
}

// stats flushes every handle and reports the structures' contents in the
// shape the daemon's audit surface has, so one check serves both.
func (t *applyTarget) stats() []dlzd.StatsResponse {
	out := make([]dlzd.StatsResponse, numTenants)
	for i := range out {
		for c := range t.mqh {
			if t.mqh[c][i] != nil {
				t.mqh[c][i].Flush()
				t.mqh[c][i].ReturnPrefetched()
				t.ch[c][i].Flush()
			}
		}
		out[i] = dlzd.StatsResponse{QueueLen: t.mq[i].Len(), CounterExact: t.mc[i].Exact()}
	}
	return out
}

// codecTarget is the JSON rung alone: decode the request and encode an answer
// of the right shape, on the wire.go types, the way dlzd's handlers do
// (Decoder with DisallowUnknownFields in, Encoder out), applying nothing.
type codecTarget struct{}

func (codecTarget) do(c *caller, r *request) (int, error) {
	c.rd.Reset(c.s.bodyOf(r))
	dec := json.NewDecoder(&c.rd)
	dec.DisallowUnknownFields()
	c.buf.Reset()
	enc := json.NewEncoder(&c.buf)
	var err error
	switch r.op {
	case opEnqueue:
		var req dlzd.EnqueueBatchRequest
		if err = dec.Decode(&req); err == nil {
			err = enc.Encode(dlzd.EnqueueBatchResponse{Enqueued: len(req.Items)})
		}
	case opDeleteMin:
		var req dlzd.DeleteMinRequest
		if err = dec.Decode(&req); err == nil {
			err = enc.Encode(dlzd.DeleteMinResponse{Items: c.s.items[:req.Max]})
			c.values = scanValues(c.buf.Bytes(), c.values)
		}
	case opCounterAdd:
		var req dlzd.CounterAddRequest
		if err = dec.Decode(&req); err == nil {
			err = enc.Encode(dlzd.CounterAddResponse{Added: len(req.Deltas)})
		}
	}
	if err != nil {
		return 0, err
	}
	return int(r.n), nil
}

// appendTarget is the journal rung alone: the record each request would
// leave, through Log.Append.
type appendTarget struct{ log *wal.Log }

func (t appendTarget) do(c *caller, r *request) (int, error) {
	rec := wal.Record{Tenant: tenantName(int(r.tenant)), Session: callerSession(c.idx), Metered: uint64(r.n)}
	switch r.op {
	case opEnqueue, opDeleteMin:
		rec.Type = wal.RecEnqueue
		src := c.s.items[:r.n] // a delete-min's record holds what it delivered; any items price it
		if r.op == opEnqueue {
			src = c.s.itemsOf(r)
		} else {
			rec.Type = wal.RecDeleteMin
		}
		rec.Items = make([]wal.Item, len(src))
		for i, it := range src {
			rec.Items[i] = wal.Item{Priority: it.Priority, Value: it.Value}
		}
	case opCounterAdd:
		rec.Type, rec.Count = wal.RecCounterAdd, uint64(r.n)
		for _, d := range c.s.deltasOf(r) {
			rec.Weight += d
		}
	}
	if _, err := t.log.Append(&rec); err != nil {
		return 0, err
	}
	return int(r.n), nil
}

// replayServeHTTP sends the stream to a fresh in-process server, calling
// ServeHTTP directly, checks the server's ledger against the callers', and
// returns the timed part's latencies with its heap allocations and allocated
// bytes per request.
func replayServeHTTP(s *stream, walDir string, ck *checker) (lat [][]uint32, allocs, size float64, srv *dlzd.Server, err error) {
	if srv, err = newEmbedded(walDir); err != nil {
		return nil, 0, 0, nil, err
	}
	ep := handlerEndpoint{srv}
	led, err := prefill(ep, s)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	cs := newCallers(s, nil)
	driveAll(cs, wireTarget{ep}, 0, warmupEnd)
	allocs, size = mallocs(func() { lat = driveAll(cs, wireTarget{ep}, warmupEnd, 1) })
	timed := 0.0
	for _, l := range lat {
		timed += float64(len(l))
	}
	total, _ := settle(cs, s, led, ck)
	stats, err := fetchStats(ep, s)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	ck.checkStats("after the ServeHTTP replay", &total, stats)
	return lat, allocs / timed, size / timed, srv, nil
}

// perRequest is the callers' own time per request, in microseconds.
func perRequest(lat [][]uint32) summary { return callerTimeSummary("us", lat, 1, 1e-3) }

// metricValue reads one un-labelled series from a /metrics exposition.
func metricValue(exposition []byte, name string) (float64, error) {
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s line", name)
}

// wireLadder measures the rungs a wire request crosses, bottom up, on a tenth
// of the wire workloads' stream. It returns the traced pair when name is a
// wire workload.
func wireLadder(r *result, cfg config, ck *checker, name string) (*tracedPair, error) {
	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg.callers = 1 // as the wire workloads run
	s := genStream(cfg.seed, cfg.callers, wireRequests(cfg, tracedShare), wireBatch)
	r.Attempted += int64(s.requests() * wireBatch)

	beneathServeHTTP(r, cfg, s, ck)
	replay, err := serveHTTPRungs(r, cfg, s, scratch, ck)
	if err != nil {
		return nil, err
	}
	if err := journalRungs(r, s, scratch, ck); err != nil {
		return nil, err
	}
	// The rungs that cross a socket run as the wire workloads do, on one CPU.
	var pair *tracedPair
	err = onOneCPU(func(int) (err error) {
		pair, err = socketRungs(r, cfg, s, scratch, ck, name, replay)
		return err
	})
	return pair, err
}

// socketRungs measures the rungs that cross a socket: the shipped binary with
// its journal, killed and recovered, and the embedded server on loopback
// behind the span handler. replay is the plain ServeHTTP replay's latencies,
// which the nested span has to reconcile with.
func socketRungs(r *result, cfg config, s *stream, scratch string, ck *checker, name string, replay [][]uint32) (*tracedPair, error) {
	if err := binaryRungs(r, cfg, s, scratch, ck); err != nil {
		return nil, err
	}
	rec := newRecorder()
	loop, err := runLoopback(s, "", rec, ck)
	if err != nil {
		return nil, err
	}
	spans := rec.all()
	for _, row := range selfTimes(spans) {
		switch row.Name {
		case "client.roundtrip":
			r.Metrics["cmd-dlzd.http_self_us_per_req"] = summarize("us", row.SelfUs)
		case "dlzd.servehttp":
			r.Metrics["bench.servehttp_replay_vs_span_x"] = summarize("x", latencySummary(replay, 0.5, nil).Value/row.DurUs)
		}
	}
	var rejected int64
	for _, c := range loop.cs {
		rejected += c.rejected
	}
	r.Metrics["dlzd.rejected_per_kreq"] = summarize("count", float64(rejected)/float64(s.requests())*1e3)
	r.Metrics["cmd-dlzd.conns_opened"] = summarize("count", float64(loop.dials))
	for op, metric := range map[opKind]string{opEnqueue: "dlzd.enqueue_p50_us", opDeleteMin: "dlzd.deletemin_p50_us", opCounterAdd: "dlzd.counteradd_p50_us"} {
		op := op
		r.Metrics[metric] = latencySummary(loop.lat, 0.5, func(c, i int) bool {
			first := len(loop.cs[c].reqs) - len(loop.lat[c])
			return loop.cs[c].reqs[first+i].op == op
		})
	}

	switch name {
	case "wire-mem":
		twin, err := runLoopback(s, "", nil, ck)
		if err != nil {
			return nil, err
		}
		return &tracedPair{traced: loop.lat, untraced: twin.lat, spans: spans}, nil
	case "wire-wal":
		twin, err := runLoopback(s, filepath.Join(scratch, "loop-untraced"), nil, ck)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		traced, err := runLoopback(s, filepath.Join(scratch, "loop-traced"), rec, ck)
		if err != nil {
			return nil, err
		}
		return &tracedPair{traced: traced.lat, untraced: twin.lat, spans: rec.all()}, nil
	}
	return nil, nil
}

// beneathServeHTTP measures the two rungs under the daemon: the stream's
// operations on dlz handles, and the JSON codec alone.
func beneathServeHTTP(r *result, cfg config, s *stream, ck *checker) {
	apply, led := newApplyTarget(cfg.seed, s)
	cs := newCallers(s, nil)
	driveAll(cs, apply, 0, warmupEnd)
	r.Metrics["core.apply_us_per_req"] = perRequest(driveAll(cs, apply, warmupEnd, 1))
	total, _ := settle(cs, s, led, ck)
	ck.checkStats("after core.apply", &total, apply.stats())
	cs = newCallers(s, nil)
	driveAll(cs, codecTarget{}, 0, warmupEnd)
	r.Metrics["dlzd.codec_us_per_req"] = perRequest(driveAll(cs, codecTarget{}, warmupEnd, 1))
}

// serveHTTPRungs measures ServeHTTP in-process: JSON, routing, admission and
// the lease path, at the workloads' batch, at batch 1 and 64, and with the
// journal on. It returns the plain replay's latencies.
func serveHTTPRungs(r *result, cfg config, s *stream, scratch string, ck *checker) ([][]uint32, error) {
	replay, allocs, size, srv, err := replayServeHTTP(s, "", ck)
	if err != nil {
		return nil, err
	}
	srv.Close()
	r.Metrics["dlzd.servehttp_us_per_req"] = perRequest(replay)
	r.Metrics["dlzd.allocs_per_req"] = summarize("count", allocs)
	r.Metrics["dlzd.alloc_bytes_per_req"] = summarize("B", size)

	// Batch 1 against batch 64 separates the fixed cost of a request from
	// the cost of an item.
	var perBatch [2]float64
	for i, batch := range []int{1, 64} {
		lat, _, _, srv, err := replayServeHTTP(genStream(cfg.seed, cfg.callers, len(s.callers[0])/2, batch), "", ck)
		if err != nil {
			return nil, err
		}
		srv.Close()
		perBatch[i] = perRequest(lat).Value
	}
	perItem := (perBatch[1] - perBatch[0]) / 63
	r.Metrics["dlzd.per_item_ns"] = summarize("ns", perItem*1e3)
	r.Metrics["dlzd.per_request_us"] = summarize("us", perBatch[0]-perItem)

	// The same replay with the journal on, at the end-to-end fsync policy.
	journaled, _, _, srv, err := replayServeHTTP(s, filepath.Join(scratch, "serve"), ck)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	r.Metrics["dlzd.servehttp_wal_us_per_req"] = perRequest(journaled)
	scrape := &caller{s: s}
	if err := control(handlerEndpoint{srv}, scrape, http.MethodGet, "/metrics", nil, nil); err != nil {
		return nil, err
	}
	fsyncs, err := metricValue(scrape.buf.Bytes(), "dlzd_wal_fsyncs_total")
	if err != nil {
		return nil, err
	}
	r.Metrics["wal.fsyncs_per_kreq"] = summarize("count", fsyncs/float64(s.requests()+len(s.prefill))*1e3)
	start := time.Now()
	if err := srv.Snapshot(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	r.Metrics["dlzd.snapshot_ms"] = summarize("ms", time.Since(start).Seconds()*1e3)
	return replay, nil
}

// journalRungs measures the journal alone: the stream's records through
// Log.Append, one caller, under each fsync policy. An fsync per record is a
// hundred times the others, so always gets a short stream.
func journalRungs(r *result, s *stream, scratch string, ck *checker) error {
	for _, p := range []struct {
		policy wal.FsyncPolicy
		share  float64
	}{{wal.FsyncNever, 1}, {wal.FsyncInterval, 1}, {wal.FsyncAlways, 0.05}} {
		log, _, err := wal.Open(wal.Options{Dir: filepath.Join(scratch, "append-"+p.policy.String()), Policy: p.policy})
		if err != nil {
			return err
		}
		one := newCallers(s, nil)[:1]
		lat := driveAll(one, appendTarget{log}, 0, p.share)
		r.Metrics["wal.append_us."+p.policy.String()] = perRequest(lat)
		if p.policy == wal.FsyncNever {
			r.Metrics["wal.bytes_per_record"] = summarize("B", float64(log.BytesAppended())/float64(len(lat[0])))
		}
		if one[0].failed > 0 {
			ck.failf(one[0].failed, "journal append under fsync %s: %v", p.policy, one[0].firstErr)
		}
		if err := log.Close(); err != nil {
			return err
		}
	}
	return nil
}

// binaryRungs drives the shipped binary with its journal on, kills it, then
// replays copies of the journal with wal.Replay, restores them with
// Server.Recover, restarts the binary on the original, and last times the
// binary's boot without a journal.
func binaryRungs(r *result, cfg config, s *stream, scratch string, ck *checker) error {
	rig, err := setupWire(cfg, len(s.callers[0]), true)
	if err != nil {
		return err
	}
	defer rig.teardown()
	driveAll(rig.cs, wireTarget{rig.ep}, warmupEnd, 1)
	total, attempted := settle(rig.cs, rig.s, rig.led, ck)
	rig.stop()
	journal, err := dirBytes(rig.walDir)
	if err != nil {
		return err
	}
	r.Metrics["wal.bytes_per_op"] = summarize("B", float64(journal)/float64(attempted+int64(numTenants*prefillPerTenant)))

	// Replay and restore are timed several times, each on a fresh copy,
	// because restore is the small difference of two larger times.
	var replays, restores []float64
	var records float64
	for i := 0; i < setupRepeats; i++ {
		killed := filepath.Join(scratch, "killed-"+strconv.Itoa(i))
		if err := copyDir(rig.walDir, killed); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		_, recovered, err := wal.Replay(killed)
		if err != nil {
			return err
		}
		replayTime := time.Since(start)
		if records = float64(len(recovered.Records)); records == 0 {
			return fmt.Errorf("the killed daemon left an empty journal in %s", rig.walDir)
		}
		recovered = nil
		runtime.GC()
		start = time.Now()
		// The restored server is dropped, not closed: Close would write a
		// snapshot nobody reads.
		if _, err := newEmbedded(killed); err != nil {
			return err
		}
		replays = append(replays, replayTime.Seconds()*1e6/records)
		restores = append(restores, (time.Since(start)-replayTime).Seconds()*1e6/records)
	}
	r.Metrics["wal.replay_us_per_record"] = summarize("us", replays...)
	r.Metrics["dlzd.restore_us_per_record"] = summarize("us", restores...)
	recovery, err := rig.boot()
	if err != nil {
		return err
	}
	r.Metrics["cmd-dlzd.recovery_us_per_record"] = summarize("us", recovery.Seconds()*1e6/records)
	if err := rig.auditDaemon("after the ladder's recovery", &total, ck); err != nil {
		return err
	}
	rig.teardown()

	var boots []float64
	for i := 0; i < segments; i++ {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		d, err := spawnDaemon(rig.bin, addr, "")
		if err != nil {
			return err
		}
		boot, err := d.waitFor("/healthz")
		d.kill()
		if err != nil {
			return err
		}
		boots = append(boots, boot.Seconds()*1e3)
	}
	r.Metrics["cmd-dlzd.boot_ms"] = summarize("ms", boots...)
	return nil
}
