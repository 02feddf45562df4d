package dlzd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The suites drive Serve; these three drive the http.Handler adapter, which
// the benchmark's in-process rungs and any embedding mux still call.

func serveHTTP(s *Server, method, target, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	return w
}

func TestServeHTTPRoundTrip(t *testing.T) {
	s := New(Config{Queues: 2, Batch: 4})
	for _, tc := range []struct {
		method, target, body string
		status               int
		want                 string
	}{
		{"POST", "/v1/t/enqueue-batch", `{"session":"s","items":[{"priority":2,"value":20},{"priority":1,"value":10}]}`, 200, "{\"enqueued\":2}\n"},
		{"POST", "/v1/t/counter/add-batch", `{"session":"s","deltas":[5,6]}`, 200, "{\"added\":2}\n"},
		{"POST", "/v1/t/session/close", `{"session":"s"}`, 200, "{\"closed\":false}\n"},
		{"POST", "/v1/t/delete-min-up-to", `{"session":"r","max":1}`, 200, "{\"items\":[{\"priority\":1,\"value\":10}]}\n"},
		{"GET", "/v1/t/session/close", "", 405, "{\"error\":\"POST required\"}\n"},
		{"POST", "/v1/t/delete-min-up-to", `{"session":"r","max":0}`, 400, "{\"error\":\"max must be in [1, 4096]\"}\n"},
		{"GET", "/healthz", "", 200, "{\"ok\":true}\n"},
		{"GET", "/nope", "", 404, "{\"error\":\"unknown path\"}\n"},
	} {
		w := serveHTTP(s, tc.method, tc.target, tc.body)
		if w.Code != tc.status || w.Body.String() != tc.want {
			t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.target, w.Code, w.Body.String(), tc.status, tc.want)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s Content-Type = %q", tc.method, tc.target, ct)
		}
	}
	// A relaxed read's value is not pinned; that a query is ignored is.
	if w := serveHTTP(s, "GET", "/v1/t/counter/read?session=a%20b", ""); w.Code != 200 || !strings.HasPrefix(w.Body.String(), `{"value":`) {
		t.Errorf("counter/read = %d %q", w.Code, w.Body.String())
	}
	tn, _ := s.tenant([]byte("t"))
	if n := tn.poolStats().pairs; n != 1 {
		t.Errorf("one request at a time left %d handle pairs, want 1", n)
	}
	if w := serveHTTP(s, "GET", "/metrics", ""); w.Code != 200 || !strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") ||
		!strings.Contains(w.Body.String(), "dlzd_requests_total 10\n") { // the scrape counts itself
		t.Errorf("/metrics = %d %q, requests line missing from:\n%s", w.Code, w.Header().Get("Content-Type"), w.Body.String())
	}
}

func TestServeHTTPRetryAfterAndBodyCap(t *testing.T) {
	s := New(Config{Queues: 2, MaxInFlight: 1})
	tn, _ := s.tenant([]byte("full"))
	tn.inflight.Add(1)
	w := serveHTTP(s, "POST", "/v1/full/enqueue-batch", `{"session":"s","items":[{"priority":1,"value":1}]}`)
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") != "1" {
		t.Errorf("over budget = %d, Retry-After %q; want 429, \"1\"", w.Code, w.Header().Get("Retry-After"))
	}
	tn.inflight.Add(-1)
	// One byte past the cap is refused unread by the pipeline; the cap itself
	// reaches the decoder.
	for extra, want := range map[int]int{1: http.StatusRequestEntityTooLarge, 0: http.StatusBadRequest} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/full/enqueue-batch", bytes.NewReader(make([]byte, maxBody+extra))))
		if w.Code != want {
			t.Errorf("body of cap+%d bytes = %d, want %d", extra, w.Code, want)
		}
	}
}

// TestHotRequestsZeroAlloc is the codec and scratch work's gate: a warm
// enqueue-batch / delete-min-up-to / counter/add-batch / counter/read through
// the pipeline allocates nothing with durability off — not the decode, not
// the pair's borrow and give-back, not the envelope's closures, not the
// answer.
func TestHotRequestsZeroAlloc(t *testing.T) {
	s := New(Config{Queues: 8, Batch: 8, Stickiness: 16, MaxInFlight: 256})
	requests := []request{
		{method: []byte("POST"), path: []byte("/v1/tenant0/enqueue-batch"), body: []byte(
			`{"session":"c0","items":[{"priority":11,"value":1},{"priority":12,"value":2},{"priority":13,"value":3},{"priority":14,"value":4},` +
				`{"priority":15,"value":5},{"priority":16,"value":6},{"priority":17,"value":7},{"priority":18,"value":8}]}`)},
		{method: []byte("POST"), path: []byte("/v1/tenant0/delete-min-up-to"), body: []byte(`{"session":"c0","max":8}`)},
		{method: []byte("POST"), path: []byte("/v1/tenant0/counter/add-batch"), body: []byte(`{"session":"c0","deltas":[1,2,3,4,5,6,7,8]}`)},
		{method: []byte("GET"), path: []byte("/v1/tenant0/counter/read")},
	}
	var sc scratch
	dst := make([]byte, 0, 1024)
	round := func() {
		for i := range requests {
			requests[i].arrival = time.Now() // as a transport stamps it
			out, rp := s.handle(&sc, &requests[i], dst[:0])
			if rp.status != http.StatusOK {
				t.Fatalf("%s = %d %s", requests[i].path, rp.status, out)
			}
		}
	}
	for i := 0; i < 64; i++ { // warm: tenant, pool, scratch and handle buffers at their working size
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("a warm round of the four hot requests allocates %v times, want 0", allocs)
	}
}
