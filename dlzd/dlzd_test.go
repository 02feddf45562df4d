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
	"sync"
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

	// A session holds nothing, so a close finds nothing to close.
	var closed SessionCloseResponse
	if code := c.post("/v1/acme/session/close", SessionCloseRequest{Session: "s1"}, &closed); code != http.StatusOK || closed.Closed {
		t.Fatalf("session close = %d closed=%v, want 200 and false", code, closed.Closed)
	}

	// One request at a time: the pool owns one pair.
	var st StatsResponse
	if code := c.get("/v1/acme/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.QueueLen != 0 || st.CounterExact != 6 || st.Leases != 1 {
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
	// The elements published before the 200.

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
	// must bounce without borrowing a handle pair.
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

// TestNoElementWaitsInIdleSession pins that no pooled handle pair holds an
// acknowledged element, prefetch or counter weight out of the others' sight:
// every request publishes its pair's buffers before it answers, so two
// clients see each other's work at once, with nothing closed in between.
func TestNoElementWaitsInIdleSession(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 64, Batch: 8, Stickiness: 16})
	stats := func(step string, leases, queueLen int, counter uint64) {
		t.Helper()
		var st StatsResponse
		if code := c.get("/v1/idle/stats", &st); code != http.StatusOK {
			t.Fatalf("%s: stats = %d", step, code)
		}
		if st.Leases != leases || st.QueueLen != queueLen || st.CounterExact != counter ||
			st.BufferedEnqueues != 0 || st.PrefetchedDequeues != 0 || st.BufferedCounterOps != 0 || st.BufferedCounterWeight != 0 {
			t.Fatalf("%s: stats %+v, want %d pairs, queue_len %d, counter_exact %d and nothing held by a pair",
				step, st, leases, queueLen, counter)
		}
	}

	// A's three acked elements are B's to take while A stays open.
	if code := c.post("/v1/idle/enqueue-batch", EnqueueBatchRequest{Session: "A", Items: wireItems(1, 2, 3)}, nil); code != http.StatusOK {
		t.Fatalf("A enqueue = %d", code)
	}
	stats("after A's enqueue", 1, 3, 0)
	var deq DeleteMinResponse
	if code := c.post("/v1/idle/delete-min-up-to", DeleteMinRequest{Session: "B", Max: 8}, &deq); code != http.StatusOK {
		t.Fatalf("B delete-min = %d", code)
	}
	got := map[uint64]bool{}
	for _, it := range deq.Items {
		got[it.Priority] = true
	}
	if len(deq.Items) != 3 || !got[1] || !got[2] || !got[3] {
		t.Fatalf("B drained %+v, want A's priorities 1, 2 and 3", deq.Items)
	}

	// A delete-min of one keeps no refill behind: the other 15 stay shared.
	prios := make([]uint64, 16)
	for i := range prios {
		prios[i] = 100 + uint64(i)
	}
	if code := c.post("/v1/idle/enqueue-batch", EnqueueBatchRequest{Session: "B", Items: wireItems(prios...)}, nil); code != http.StatusOK {
		t.Fatalf("B enqueue = %d", code)
	}
	if code := c.post("/v1/idle/delete-min-up-to", DeleteMinRequest{Session: "A", Max: 1}, &deq); code != http.StatusOK || len(deq.Items) != 1 {
		t.Fatalf("A delete-min = %d with %d items, want 200 with 1", code, len(deq.Items))
	}
	stats("after A's delete-min of one", 1, 15, 0)

	// A's acked counter weight is in the shared counter at once.
	if code := c.post("/v1/idle/counter/add-batch", CounterAddRequest{Session: "A", Deltas: []uint64{15}}, nil); code != http.StatusOK {
		t.Fatalf("A counter add = %d", code)
	}
	stats("after A's counter add", 1, 15, 15)
}

// TestHandleStateBoundedByConcurrency pins that what a tenant keeps per
// client is bounded by how many requests ran at once, not by how many
// distinct session tokens it was sent: every request below mints a token,
// and the tenant still owns at most one handle pair per concurrent caller,
// with heap growth that does not scale with the tokens.
func TestHandleStateBoundedByConcurrency(t *testing.T) {
	s := New(Config{Queues: 64, Batch: 8, Stickiness: 16})
	// send runs one request with a fresh token through the pipeline.
	send := func(sc *scratch, token string, i int) {
		t.Helper()
		path, body := "/v1/mint/enqueue-batch", fmt.Sprintf(`{"session":%q,"items":[{"priority":%d,"value":%d}]}`, token, i, i)
		if i%2 == 1 {
			path, body = "/v1/mint/delete-min-up-to", fmt.Sprintf(`{"session":%q,"max":1}`, token)
		}
		rq := request{method: []byte("POST"), path: []byte(path), body: []byte(body), arrival: time.Now()}
		if out, rp := s.handle(sc, &rq, nil); rp.status != http.StatusOK {
			t.Errorf("%s = %d %s", path, rp.status, out)
		}
	}
	leases := func() int {
		t.Helper()
		var sc scratch
		rq := request{method: []byte("GET"), path: []byte("/v1/mint/stats"), arrival: time.Now()}
		out, _ := s.handle(&sc, &rq, nil)
		var st StatsResponse
		if err := json.Unmarshal(out, &st); err != nil {
			t.Fatalf("stats %q: %v", out, err)
		}
		return st.Leases
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	const tokens = 20000
	var sc scratch
	send(&sc, "warm", 0)
	before := heap()
	for i := 0; i < tokens; i++ {
		send(&sc, fmt.Sprintf("tok-%d", i), i)
	}
	grown := heap() - before
	runtime.KeepAlive(s)
	if n := leases(); n != 1 {
		t.Fatalf("%d sequential requests with distinct tokens left %d handle pairs, want 1", tokens, n)
	}
	// A pair per token cost about 1.4 KB; what may remain are the
	// elements the relaxed dequeues did not find.
	if bound := int64(tokens * 64); grown > bound {
		t.Fatalf("%d tokens grew the heap by %d B, want <= %d", tokens, grown, bound)
	}
	t.Logf("%d tokens grew the heap by %d B", tokens, grown)

	const callers = 4
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc scratch
			for i := 0; i < 500; i++ {
				send(&sc, fmt.Sprintf("g%d-%d", g, i), i)
			}
		}(g)
	}
	wg.Wait()
	if n := leases(); n < 1 || n > callers {
		t.Fatalf("%d concurrent callers minting tokens left %d handle pairs, want 1..%d", callers, n, callers)
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
	s, c := newTestServer(t, Config{Queues: 2})
	tooMany := make([]WireItem, MaxWireBatch+1)
	deleteMin := func(body string) func() int {
		return func() int { return c.post("/v1/ok/delete-min-up-to", json.RawMessage(body), nil) }
	}

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
		{"no session token is needed", http.StatusOK, func() int {
			return c.post("/v1/ok/enqueue-batch", EnqueueBatchRequest{Items: wireItems(1)}, nil)
		}},
		{"zero max", http.StatusBadRequest, func() int {
			return c.post("/v1/ok/delete-min-up-to", DeleteMinRequest{Session: "s"}, nil)
		}},
		{"read without session", http.StatusOK, func() int { return c.get("/v1/ok/counter/read", nil) }},
		// Bodies outside the scanner's canonical shape are refused, even
		// where encoding/json would read them.
		{"session key in another case", http.StatusBadRequest, deleteMin(`{"Session":"s","max":4}`)},
		{"escaped session", http.StatusBadRequest, deleteMin(`{"session":"\u0073","max":4}`)},
		{"duplicate key", http.StatusBadRequest, deleteMin(`{"session":"s","max":1,"max":4}`)},
		{"null session", http.StatusBadRequest, deleteMin(`{"session":null,"max":4}`)},
		{"non-ASCII session", http.StatusBadRequest, deleteMin(`{"session":"café","max":4}`)},
		{"non-ASCII session through ServeHTTP", http.StatusBadRequest, func() int {
			w := serveHTTP(s, "POST", "/v1/ok/delete-min-up-to", `{"session":"café","max":4}`)
			if w.Body.String() != string(appendError(nil, badBody)) {
				t.Errorf("ServeHTTP answered %q, want %q", w.Body, badBody)
			}
			return w.Code
		}},
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
// 1,421,000 B of live heap after a collection, the 1,136,408 B they measure
// on linux/amd64 plus a quarter. A shard starts with no element storage, so
// the bound holds however many shards a tenant has; a client minting names
// cannot pin memory that no element uses.
func TestTenantAtRestFootprint(t *testing.T) {
	const tenants, bound = 64, 1_421_000
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
	// The answered requests published their elements: they are in the structure.
	tn, ok := s.tenant([]byte("x"))
	if !ok {
		t.Fatal("tenant lookup failed")
	}
	if got := tn.mq.Len(); got != 2 {
		t.Fatalf("the answered enqueue's elements are not published: Len=%d want 2", got)
	}
}
