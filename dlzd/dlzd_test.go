package dlzd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testClient is a JSON client of a server started by newTestServer; every
// method returns the HTTP status and decodes 2xx bodies into out when non-nil.
type testClient struct {
	t    *testing.T
	addr string // host:port, for tests that open the socket themselves
	url  string
}

// newTestServer builds cfg's server and serves it the way the binary does —
// Serve on a loopback listener — so every suite drives the connection loop
// the daemon ships. The server is drained when the test ends. A test that
// sets a ladder value calls New, sets it, and then serveLoopback.
func newTestServer(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	s := New(cfg)
	return s, serveLoopback(t, s)
}

// serveLoopback runs s.Serve on a loopback listener until the test ends, and
// fails the test if the drain leaves a connection goroutine behind.
func serveLoopback(t *testing.T, s *Server) *testClient {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	addr := ln.Addr().String()
	return &testClient{t: t, addr: addr, url: "http://" + addr}
}

// farDeadline is a lease deadline no test reaches.
func farDeadline() time.Time { return time.Now().Add(time.Hour) }

func (c *testClient) post(path string, body, out any) int {
	c.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		c.t.Fatalf("marshal %s: %v", path, err)
	}
	resp, err := http.Post(c.url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		c.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func (c *testClient) get(path string, out any) int {
	c.t.Helper()
	resp, err := http.Get(c.url + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func (c *testClient) metrics() string {
	c.t.Helper()
	resp, err := http.Get(c.url + "/metrics")
	if err != nil {
		c.t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("read /metrics: %v", err)
	}
	return string(body)
}

func wireItems(prios ...uint64) []WireItem {
	items := make([]WireItem, len(prios))
	for i, p := range prios {
		items[i] = WireItem{Priority: p, Value: p ^ 0xD1CE}
	}
	return items
}

func TestDaemonRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 4, Batch: 4, Stickiness: 8, Seed: 7})

	if code := c.get("/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	var enq EnqueueBatchResponse
	items := wireItems(5, 3, 9, 1, 7, 2, 8, 4, 6, 10)
	if code := c.post("/v1/acme/enqueue-batch", EnqueueBatchRequest{Session: "s1", Items: items}, &enq); code != http.StatusOK {
		t.Fatalf("enqueue = %d", code)
	}
	if enq.Enqueued != len(items) {
		t.Fatalf("Enqueued = %d, want %d", enq.Enqueued, len(items))
	}

	var deq DeleteMinResponse
	got := 0
	for got < len(items) {
		if code := c.post("/v1/acme/delete-min-up-to", DeleteMinRequest{Session: "s1", Max: 4}, &deq); code != http.StatusOK {
			t.Fatalf("delete-min = %d", code)
		}
		if len(deq.Items) == 0 {
			break
		}
		for _, it := range deq.Items {
			if it.Value != it.Priority^0xD1CE {
				t.Fatalf("value corrupted on the wire: %+v", it)
			}
		}
		got += len(deq.Items)
	}
	if got != len(items) {
		t.Fatalf("drained %d elements, want %d", got, len(items))
	}

	var add CounterAddResponse
	if code := c.post("/v1/acme/counter/add-batch", CounterAddRequest{Session: "s1", Deltas: []uint64{1, 2, 3}}, &add); code != http.StatusOK {
		t.Fatalf("counter add = %d", code)
	}
	if add.Added != 3 {
		t.Fatalf("Added = %d, want 3", add.Added)
	}
	var read CounterReadResponse
	if code := c.get("/v1/acme/counter/read?session=s1", &read); code != http.StatusOK {
		t.Fatalf("counter read = %d", code)
	}

	var closed SessionCloseResponse
	if code := c.post("/v1/acme/session/close", SessionCloseRequest{Session: "s1"}, &closed); code != http.StatusOK || !closed.Closed {
		t.Fatalf("session close = %d closed=%v", code, closed.Closed)
	}
	// Closing again finds no live lease.
	if code := c.post("/v1/acme/session/close", SessionCloseRequest{Session: "s1"}, &closed); code != http.StatusOK || closed.Closed {
		t.Fatalf("second close = %d closed=%v, want false", code, closed.Closed)
	}

	var st StatsResponse
	if code := c.get("/v1/acme/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.QueueLen != 0 || st.CounterExact != 6 || st.Leases != 0 {
		t.Fatalf("post-close stats: %+v", st)
	}
}

// TestPrio48WireDifferential is the wire-boundary half of the top-word
// truncation differential: priorities straddling both 2^48 (the TopWord
// truncation boundary) and 2^53 (the float64 exactness boundary a sloppy
// JSON layer would corrupt) must dequeue through the daemon in exact
// full-resolution order, proving the pubMin mirror — not the truncated top
// word — ranks candidates, and that uint64 priorities survive JSON intact.
func TestPrio48WireDifferential(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 1, Batch: 4, Seed: 5})

	base48 := uint64(1) << 48
	base53 := uint64(1) << 53
	prios := []uint64{
		base48 + 2, 3, base53 + 1, base48 - 1, base48, 7,
		base53 - 1, base48 + 1, base48 - 2, base53 + 3, 5, base53,
	}
	var enq EnqueueBatchResponse
	if code := c.post("/v1/diff/enqueue-batch", EnqueueBatchRequest{Session: "w", Items: wireItems(prios...)}, &enq); code != http.StatusOK {
		t.Fatalf("enqueue = %d", code)
	}
	// Disconnect: the buffered tail publishes through the lease close path.
	if code := c.post("/v1/diff/session/close", SessionCloseRequest{Session: "w"}, nil); code != http.StatusOK {
		t.Fatalf("close = %d", code)
	}

	var got []uint64
	for {
		var deq DeleteMinResponse
		if code := c.post("/v1/diff/delete-min-up-to", DeleteMinRequest{Session: "r", Max: 5}, &deq); code != http.StatusOK {
			t.Fatalf("delete-min = %d", code)
		}
		if len(deq.Items) == 0 {
			break
		}
		for _, it := range deq.Items {
			if it.Value != it.Priority^0xD1CE {
				t.Fatalf("value corrupted: %+v", it)
			}
			got = append(got, it.Priority)
		}
	}
	if len(got) != len(prios) {
		t.Fatalf("drained %d priorities, want %d: %v", len(got), len(prios), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("m=1 wire drain must be exactly sorted at full resolution: %v", got)
		}
	}
}

func TestBackpressure429(t *testing.T) {
	s, c := newTestServer(t, Config{Queues: 2, MaxInFlight: 1})
	tn, ok := s.tenant([]byte("bp"))
	if !ok {
		t.Fatal("tenant create failed")
	}
	// Occupy the whole in-flight budget from the outside; the next request
	// must bounce without touching a lease.
	tn.inflight.Add(1)
	code := c.post("/v1/bp/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(1)}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request = %d, want 429", code)
	}
	tn.inflight.Add(-1)
	if code := c.post("/v1/bp/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(1)}, nil); code != http.StatusOK {
		t.Fatalf("in-budget request = %d, want 200", code)
	}
	if !strings.Contains(c.metrics(), `dlzd_rejected_inflight_total{tenant="bp"} 1`) {
		t.Fatal("rejection not visible in /metrics")
	}
}

func TestQuotaExhaustion429(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 2, QuotaOps: 10})
	// Quota admission is check-then-meter: a request admitted under the limit
	// may push the meter past it (bounded overshoot of one wire batch), and
	// the next request is refused.
	if code := c.post("/v1/q/counter/add-batch", CounterAddRequest{Session: "s", Deltas: make([]uint64, 8)}, nil); code != http.StatusOK {
		t.Fatalf("first batch = %d, want 200", code)
	}
	if code := c.post("/v1/q/counter/add-batch", CounterAddRequest{Session: "s", Deltas: make([]uint64, 8)}, nil); code != http.StatusOK {
		t.Fatalf("second batch (meter at 8 < 10) = %d, want 200", code)
	}
	if code := c.post("/v1/q/counter/add-batch", CounterAddRequest{Session: "s", Deltas: []uint64{1}}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("exhausted batch = %d, want 429", code)
	}
	var st StatsResponse
	if code := c.get("/v1/q/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.QuotaUsed != 16 {
		t.Fatalf("QuotaUsed = %d, want 16", st.QuotaUsed)
	}
	if !strings.Contains(c.metrics(), `dlzd_rejected_quota_total{tenant="q"} 1`) {
		t.Fatal("quota rejection not visible in /metrics")
	}
}

// TestLeaseExpiryFlushes is the daemon half of the abandoned-handle bugfix
// regression: a session that vanishes without closing holds buffered
// elements and increments; the idle sweep must publish every one of them.
func TestLeaseExpiryFlushes(t *testing.T) {
	s, c := newTestServer(t, Config{Queues: 2, Batch: 8, Seed: 11})

	if code := c.post("/v1/ten/enqueue-batch", EnqueueBatchRequest{Session: "gone", Items: wireItems(4, 2, 9)}, nil); code != http.StatusOK {
		t.Fatalf("enqueue = %d", code)
	}
	if code := c.post("/v1/ten/counter/add-batch", CounterAddRequest{Session: "gone", Deltas: []uint64{2, 3}}, nil); code != http.StatusOK {
		t.Fatalf("counter add = %d", code)
	}
	var st StatsResponse
	if code := c.get("/v1/ten/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.Leases != 1 || st.QueueLen+st.BufferedEnqueues != 3 || st.CounterExact+st.BufferedCounterWeight != 5 {
		t.Fatalf("pre-expiry stats: %+v", st)
	}
	if st.BufferedEnqueues == 0 && st.BufferedCounterOps == 0 {
		t.Fatalf("test setup should leave handle-buffered state: %+v", st)
	}

	// The session disappears without session/close: only the idle sweep can
	// recover its buffered operations.
	if n := s.ExpireIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("ExpireIdle reaped %d leases, want 1", n)
	}
	if code := c.get("/v1/ten/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.Leases != 0 || st.QueueLen != 3 || st.CounterExact != 5 || st.BufferedEnqueues != 0 || st.BufferedCounterOps != 0 {
		t.Fatalf("post-expiry stats must show everything published: %+v", st)
	}
	m := c.metrics()
	if !strings.Contains(m, `dlzd_leases_expired_total{tenant="ten"} 1`) {
		t.Fatal("expiry not visible in /metrics")
	}

	// The token is not poisoned: the next request mints a fresh lease.
	if code := c.post("/v1/ten/enqueue-batch", EnqueueBatchRequest{Session: "gone", Items: wireItems(1)}, nil); code != http.StatusOK {
		t.Fatalf("re-use after expiry = %d", code)
	}
}

func TestMetricsZeroTenants(t *testing.T) {
	_, c := newTestServer(t, Config{})
	m := c.metrics()
	for _, want := range []string{
		"dlzd_queue_elisions_total 0",
		"dlzd_queue_publications_total 0",
		"dlzd_spin_backoff_total 0",
		"dlzd_sampler_rerolls_total 0",
		"dlzd_leases_active 0",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics with zero tenants must still emit %q:\n%s", want, m)
		}
	}
}

func TestMetricsAfterTraffic(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 2, Batch: 4, Stickiness: 4, Seed: 13})
	items := make([]WireItem, 64)
	for i := range items {
		items[i] = WireItem{Priority: uint64(i), Value: uint64(i)}
	}
	if code := c.post("/v1/mt/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: items}, nil); code != http.StatusOK {
		t.Fatalf("enqueue = %d", code)
	}
	for {
		var deq DeleteMinResponse
		if code := c.post("/v1/mt/delete-min-up-to", DeleteMinRequest{Session: "s", Max: 64}, &deq); code != http.StatusOK {
			t.Fatalf("delete-min = %d", code)
		}
		if len(deq.Items) == 0 {
			break
		}
	}
	m := c.metrics()
	for _, header := range []string{
		`dlzd_queue_publications_total{tenant="mt"}`,
		`dlzd_queue_elisions_total{tenant="mt"}`,
		`dlzd_sampler_rerolls_total{tenant="mt"}`,
		`dlzd_ops_enqueued_total{tenant="mt"} 64`,
		`dlzd_ops_dequeued_total{tenant="mt"} 64`,
	} {
		if !strings.Contains(m, header) {
			t.Fatalf("after traffic /metrics must contain %q:\n%s", header, m)
		}
	}
	var pubs uint64
	if _, err := fmt.Sscanf(lineValue(t, m, `dlzd_queue_publications_total{tenant="mt"}`), "%d", &pubs); err != nil || pubs == 0 {
		t.Fatalf("publications for mt should be positive: %q err=%v", lineValue(t, m, `dlzd_queue_publications_total{tenant="mt"}`), err)
	}
}

// lineValue extracts the sample value following the given series name.
func lineValue(t *testing.T, metrics, series string) string {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	t.Fatalf("series %q not found", series)
	return ""
}

func TestRequestValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 2})
	tooMany := make([]WireItem, MaxWireBatch+1)

	cases := []struct {
		name string
		code int
		do   func() int
	}{
		{"unknown path", http.StatusNotFound, func() int { return c.get("/nope", nil) }},
		{"bad tenant name", http.StatusNotFound, func() int {
			return c.post("/v1/bad.name/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(1)}, nil)
		}},
		{"missing op", http.StatusNotFound, func() int { return c.get("/v1/solo", nil) }},
		{"unknown op", http.StatusNotFound, func() int {
			return c.post("/v1/ok/frobnicate", EnqueueBatchRequest{Session: "s"}, nil)
		}},
		{"no resize op: m is fixed", http.StatusNotFound, func() int {
			return c.post("/v1/acme/resize", struct {
				M int `json:"m"`
			}{8}, nil)
		}},
		{"GET on POST op", http.StatusMethodNotAllowed, func() int { return c.get("/v1/ok/enqueue-batch", nil) }},
		{"POST on stats", http.StatusMethodNotAllowed, func() int {
			return c.post("/v1/ok/stats", struct{}{}, nil)
		}},
		{"empty items", http.StatusBadRequest, func() int {
			return c.post("/v1/ok/enqueue-batch", EnqueueBatchRequest{Session: "s"}, nil)
		}},
		{"oversized batch", http.StatusBadRequest, func() int {
			return c.post("/v1/ok/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: tooMany}, nil)
		}},
		{"missing session", http.StatusBadRequest, func() int {
			return c.post("/v1/ok/enqueue-batch", EnqueueBatchRequest{Items: wireItems(1)}, nil)
		}},
		{"zero max", http.StatusBadRequest, func() int {
			return c.post("/v1/ok/delete-min-up-to", DeleteMinRequest{Session: "s"}, nil)
		}},
		{"read without session", http.StatusBadRequest, func() int { return c.get("/v1/ok/counter/read", nil) }},
	}
	for _, tc := range cases {
		if code := tc.do(); code != tc.code {
			t.Errorf("%s: got %d, want %d", tc.name, code, tc.code)
		}
	}
}

func TestTenantLimit403(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 2, MaxTenants: 1})
	if code := c.get("/v1/first/stats", nil); code != http.StatusOK {
		t.Fatalf("first tenant = %d", code)
	}
	if code := c.get("/v1/second/stats", nil); code != http.StatusForbidden {
		t.Fatalf("over-limit tenant = %d, want 403", code)
	}
	// The existing tenant keeps working.
	if code := c.get("/v1/first/stats", nil); code != http.StatusOK {
		t.Fatalf("existing tenant after limit = %d", code)
	}
}

// TestTenantAtRestFootprint bounds what a tenant name costs while its
// structures hold nothing: 64 empty tenants at the default m = 64 add at most
// 4 MiB of live heap after a collection. A shard starts with no element
// storage, so the bound holds however many shards a tenant has; a client
// minting names cannot pin memory that no element uses.
func TestTenantAtRestFootprint(t *testing.T) {
	const tenants, bound = 64, 4 << 20
	s := New(Config{MaxTenants: tenants})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < tenants; i++ {
		if _, ok := s.tenant([]byte(fmt.Sprintf("tenant%d", i))); !ok {
			t.Fatalf("tenant %d refused", i)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	got := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if got > bound {
		t.Fatalf("%d empty tenants hold %d B of live heap, want <= %d", tenants, got, bound)
	}
	t.Logf("%d empty tenants hold %d B of live heap", tenants, got)
}

func TestServerClose503(t *testing.T) {
	s, c := newTestServer(t, Config{Queues: 2, Batch: 8})
	if code := c.post("/v1/x/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(1, 2)}, nil); code != http.StatusOK {
		t.Fatalf("enqueue = %d", code)
	}
	s.Close()
	// Liveness stays green after Close (the process is alive and draining);
	// readiness and the API go 503.
	if code := c.get("/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after Close = %d, want 200", code)
	}
	if code := c.get("/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Close = %d, want 503", code)
	}
	if code := c.get("/v1/x/stats", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("request after Close = %d, want 503", code)
	}
	// Close flushed the lease: the buffered elements are in the structure.
	tn, ok := s.tenant([]byte("x"))
	if !ok {
		t.Fatal("tenant lookup failed")
	}
	if got := tn.mq.Len(); got != 2 {
		t.Fatalf("Close must flush leases: Len=%d want 2", got)
	}
}

func TestJanitorExpires(t *testing.T) {
	s, c := newTestServer(t, Config{Queues: 2, Batch: 8, IdleTimeout: 10 * time.Millisecond})
	stop := s.StartJanitor(5 * time.Millisecond)
	defer stop()
	if code := c.post("/v1/j/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(1, 2, 3)}, nil); code != http.StatusOK {
		t.Fatalf("enqueue = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st StatsResponse
		if code := c.get("/v1/j/stats", &st); code != http.StatusOK {
			t.Fatalf("stats = %d", code)
		}
		if st.Leases == 0 && st.QueueLen == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never reaped the idle lease: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
