package dlzd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// These tests pin the degradation ladder's behavior without the dlzfail tag:
// per-request deadlines, bounded lease waits, static and adaptive
// backpressure, and the /metrics surface for all of it. They run in both
// build modes, so the chaos CI job and the default suite cover them.

// TestRequestDeadline pins the per-request deadline semantics with a
// deadline that has passed before the first item. The apply loops read the
// clock once every deadlineStride items, so enqueue and counter add-batch
// abort with 503 after exactly one stride, while delete-min-up-to answers a
// truncated 200 holding one stride — a dequeue loop cut short has removed
// elements it cannot put back, so partial success is the response that
// preserves delivered-exactly-once. A batch of one stride is never cut.
func TestRequestDeadline(t *testing.T) {
	s := New(Config{Queues: 4, Batch: 4, Seed: 3})
	s.ladder.requestTimeout = time.Nanosecond
	c := serveLoopback(t, s)

	const n = 2 * deadlineStride
	prios := make([]uint64, n)
	deltas := make([]uint64, n)
	for i := range prios {
		prios[i], deltas[i] = uint64(i+1), 1
	}
	if code := c.post("/v1/dead/enqueue-batch",
		EnqueueBatchRequest{Session: "s", Items: wireItems(prios...)}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("enqueue under expired deadline = %d, want 503", code)
	}
	if code := c.post("/v1/dead/enqueue-batch",
		EnqueueBatchRequest{Session: "s", Items: wireItems(prios[:deadlineStride]...)}, nil); code != http.StatusOK {
		t.Errorf("one-stride enqueue under expired deadline = %d, want 200", code)
	}
	if code := c.post("/v1/dead/counter/add-batch",
		CounterAddRequest{Session: "s", Deltas: deltas}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("counter add under expired deadline = %d, want 503", code)
	}
	var deq DeleteMinResponse
	if code := c.post("/v1/dead/delete-min-up-to",
		DeleteMinRequest{Session: "s", Max: n}, &deq); code != http.StatusOK {
		t.Errorf("delete-min under expired deadline = %d, want truncated 200", code)
	}
	if !deq.Truncated || len(deq.Items) != deadlineStride {
		t.Errorf("delete-min under expired deadline: truncated %v with %d items, want truncated with %d",
			deq.Truncated, len(deq.Items), deadlineStride)
	}

	var st StatsResponse
	if code := c.get("/v1/dead/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.OpsEnqueued != 2*deadlineStride || st.OpsDequeued != deadlineStride || st.CounterDeltaSum != deadlineStride {
		t.Errorf("applied ops = %d enqueued, %d dequeued, %d added; want %d, %d, %d",
			st.OpsEnqueued, st.OpsDequeued, st.CounterDeltaSum, 2*deadlineStride, deadlineStride, deadlineStride)
	}
	// The quota meter charges at admission (before the deadline check), so
	// the conservation pair still agrees.
	if st.QuotaUsed != st.OpsMetered {
		t.Errorf("QuotaUsed = %d, OpsMetered = %d, want equal", st.QuotaUsed, st.OpsMetered)
	}
	if got := lineValue(t, c.metrics(), "dlzd_deadline_aborts_total"); got != "3" {
		t.Errorf("dlzd_deadline_aborts_total = %s after three deadline aborts", got)
	}
}

// TestLeaseBusy503 pins the bounded lease wait: while another holder keeps a
// session's lease locked past the request deadline, a request carrying the
// same token answers 503 with a Retry-After hint instead of joining an
// unbounded convoy — and the lease survives for the holder.
func TestLeaseBusy503(t *testing.T) {
	s := New(Config{Queues: 4, Seed: 5})
	s.ladder.requestTimeout = 20 * time.Millisecond
	c := serveLoopback(t, s)
	tn, ok := s.tenant([]byte("busy"))
	if !ok {
		t.Fatal("tenant refused")
	}
	l, ok := tn.lease(farDeadline(), []byte("tok"))
	if !ok {
		t.Fatal("white-box lease acquisition failed")
	}
	// The lease lock is held; the wire request must give up at its deadline.
	resp := rawPost(t, c, "/v1/busy/enqueue-batch",
		EnqueueBatchRequest{Session: "tok", Items: wireItems(1)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request against held lease = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("busy Retry-After = %q, want \"1\"", got)
	}
	l.done(time.Now())
	if code := c.post("/v1/busy/enqueue-batch",
		EnqueueBatchRequest{Session: "tok", Items: wireItems(1)}, nil); code != http.StatusOK {
		t.Errorf("request after release = %d, want 200", code)
	}
	if m := c.metrics(); lineValue(t, m, "dlzd_rejected_busy_total") != "1" {
		t.Errorf("dlzd_rejected_busy_total = %s, want 1", lineValue(t, m, "dlzd_rejected_busy_total"))
	}
}

// TestInFlightRetryAfter pins the static backpressure rung: a request over
// the in-flight budget answers 429 with a Retry-After header.
func TestInFlightRetryAfter(t *testing.T) {
	s, c := newTestServer(t, Config{Queues: 4, MaxInFlight: 1, Seed: 9})
	tn, ok := s.tenant([]byte("full"))
	if !ok {
		t.Fatal("tenant refused")
	}
	if !tn.acquire() { // white-box: consume the whole budget
		t.Fatal("budget acquire failed")
	}
	defer tn.release()
	resp := rawPost(t, c, "/v1/full/enqueue-batch",
		EnqueueBatchRequest{Session: "s", Items: wireItems(1)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-budget request = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("in-flight Retry-After = %q, want \"1\"", got)
	}
}

// TestAdaptiveShedGate pins the shed admission pattern: at level L, L of
// every 4 mutating requests are rejected with 429 and a Retry-After of
// 2^(L−1) seconds, and reads are never shed.
func TestAdaptiveShedGate(t *testing.T) {
	s := New(Config{Queues: 4, Seed: 13})
	// Stamp the dwell clock and stretch the dwell, so the controller itself
	// (observing these fast requests) cannot step the level down.
	s.ladder.shedHold = time.Hour
	c := serveLoopback(t, s)
	tn, ok := s.tenant([]byte("shed"))
	if !ok {
		t.Fatal("tenant refused")
	}
	tn.shedLevel.Store(2)
	tn.shedShift.Store(time.Now().UnixNano())

	sheds := 0
	for i := 0; i < 8; i++ {
		resp := rawPost(t, c, "/v1/shed/enqueue-batch",
			EnqueueBatchRequest{Session: "s", Items: wireItems(uint64(i + 1))})
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			sheds++
			if got := resp.Header.Get("Retry-After"); got != "2" {
				t.Errorf("shed Retry-After at level 2 = %q, want \"2\"", got)
			}
		case http.StatusOK:
		default:
			t.Fatalf("mutating request = %d, want 200 or 429", resp.StatusCode)
		}
	}
	if sheds != 4 {
		t.Errorf("shed %d of 8 mutating requests at level 2, want 4", sheds)
	}
	for i := 0; i < 4; i++ { // reads bypass the shed gate entirely
		if code := c.get("/v1/shed/stats", nil); code != http.StatusOK {
			t.Errorf("read under shed = %d, want 200", code)
		}
	}
	var st StatsResponse
	if code := c.get("/v1/shed/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.ShedLevel != 2 {
		t.Errorf("stats ShedLevel = %d, want 2", st.ShedLevel)
	}
	if m := c.metrics(); lineValue(t, m, "dlzd_rejected_shed_total") != "4" {
		t.Errorf("dlzd_rejected_shed_total = %s, want 4", lineValue(t, m, "dlzd_rejected_shed_total"))
	}
}

// TestShedLevelTracksLatency pins the adaptive controller white-box, on a
// clock that advances one dwell per sample: the EWMA escalates the level one
// step per dwell while latency exceeds the target, saturates at 3, and steps
// back down to 0 once the EWMA decays below half the target.
func TestShedLevelTracksLatency(t *testing.T) {
	s := New(Config{Queues: 4, Seed: 17})
	tn, ok := s.tenant([]byte("ctl"))
	if !ok {
		t.Fatal("tenant refused")
	}
	now := time.Now()
	observe := func(d time.Duration) {
		now = now.Add(shedHold)
		tn.observeLatency(d, now)
	}
	for i := 0; i < 5; i++ {
		observe(10 * shedTarget)
	}
	if lvl := tn.shedLevel.Load(); lvl != 3 {
		t.Errorf("shed level after sustained overload = %d, want saturation at 3", lvl)
	}
	for i := 0; i < 400 && tn.shedLevel.Load() > 0; i++ {
		observe(time.Microsecond)
	}
	if lvl := tn.shedLevel.Load(); lvl != 0 {
		t.Errorf("shed level after sustained recovery = %d, want 0", lvl)
	}
}

// TestDefaultServerRunsLadder pins that the ladder is a property of every
// server, not an option: New(Config{}) holds the documented values, and its
// first mutating request feeds the shed EWMA.
func TestDefaultServerRunsLadder(t *testing.T) {
	s, c := newTestServer(t, Config{})
	want := ladder{
		requestTimeout:    time.Second,
		shedTarget:        100 * time.Millisecond,
		shedHold:          100 * time.Millisecond,
		readTimeout:       30 * time.Second,
		readHeaderTimeout: 10 * time.Second,
		writeTimeout:      30 * time.Second,
		maxHeaderBytes:    1 << 20,
	}
	if s.ladder != want {
		t.Errorf("default ladder = %+v, want %+v", s.ladder, want)
	}
	if code := c.post("/v1/d/enqueue-batch",
		EnqueueBatchRequest{Session: "s", Items: wireItems(1)}, nil); code != http.StatusOK {
		t.Fatalf("enqueue = %d, want 200", code)
	}
	tn, _ := s.tenant([]byte("d"))
	if tn.latEWMA.Load() == 0 {
		t.Error("latency EWMA still 0 after a mutating request on a default server")
	}
}

// TestHardeningMetricsSurface asserts the degradation-ladder series are all
// present in /metrics from the very first scrape (monitoring can alert on
// them without priming traffic).
func TestHardeningMetricsSurface(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 4, Seed: 21})
	m := c.metrics()
	for _, series := range []string{
		"dlzd_rejected_shed_total",
		"dlzd_rejected_busy_total",
		"dlzd_deadline_aborts_total",
		"dlzd_panics_recovered_total",
		"dlzd_repair_failures_total",
		"dlzd_shed_level",
	} {
		if lineValue(t, m, series) != "0" {
			t.Errorf("series %s = %s on a fresh server, want 0", series, lineValue(t, m, series))
		}
	}
}

// rawPost is testClient.post without the helper's decoding, for tests that
// need response headers; the body is closed before returning.
func rawPost(t *testing.T, c *testClient, path string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal %s: %v", path, err)
	}
	resp, err := http.Post(c.url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	resp.Body.Close()
	return resp
}
