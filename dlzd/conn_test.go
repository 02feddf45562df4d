package dlzd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// rawClient speaks to the connection loop over a socket it writes itself, so
// a test can send what no http.Client would.
type rawClient struct {
	t *testing.T
	net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, c *testClient) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	// No step of any test waits longer than this for the server.
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawClient{t: t, Conn: nc, br: bufio.NewReader(nc)}
}

func (rc *rawClient) send(s string) {
	rc.t.Helper()
	if _, err := io.WriteString(rc.Conn, s); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
}

// response reads one answer, body included, the way the benchmark's client
// does: with http.ReadResponse.
func (rc *rawClient) response() (*http.Response, string) {
	rc.t.Helper()
	resp, err := http.ReadResponse(rc.br, nil)
	if err != nil {
		rc.t.Fatalf("read response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		rc.t.Fatalf("read response body: %v", err)
	}
	return resp, string(body)
}

// status reads one answer and checks its status, content type and length
// header: what every answer of the loop carries.
func (rc *rawClient) status(want int) (*http.Response, string) {
	rc.t.Helper()
	resp, body := rc.response()
	if resp.StatusCode != want {
		rc.t.Fatalf("status = %d (%s), want %d", resp.StatusCode, strings.TrimSpace(body), want)
	}
	if want >= 200 {
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") && !strings.HasPrefix(ct, "text/plain") {
			rc.t.Fatalf("Content-Type = %q", ct)
		}
		if resp.ContentLength != int64(len(body)) {
			rc.t.Fatalf("Content-Length = %d, body is %d bytes", resp.ContentLength, len(body))
		}
	}
	return resp, body
}

// closed asserts the server ends the connection without another byte.
func (rc *rawClient) closed() {
	rc.t.Helper()
	if b, err := rc.br.ReadByte(); err == nil {
		rc.t.Fatalf("connection still open: read %q", b)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		rc.t.Fatal("connection still open at the test's deadline")
	}
}

// awaitNoConns waits for every connection goroutine to have exited.
func awaitNoConns(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		open, _ := s.connStats()
		if open == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open", open)
		}
	}
}

func postRequest(path, body, extraHeaders string) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: dlzd\r\n%sContent-Length: %d\r\n\r\n%s", path, extraHeaders, len(body), body)
}

// addRequest is a counter/add-batch of n deltas: its answer's "added" says
// which request it answers.
func addRequest(n int) string {
	return postRequest("/v1/t/counter/add-batch", `{"session":"s","deltas":[`+strings.TrimSuffix(strings.Repeat("1,", n), ",")+`]}`, "")
}

const enqueueOne = `{"session":"s","items":[{"priority":1,"value":2}]}`

// TestConnLimits drives the connection loop over real loopback sockets
// through everything http.Server used to guarantee for the daemon: size and
// time limits, the HTTP/1.1 subset it speaks and what it refuses with which
// status, pipelining, and both ends of a connection's life.
func TestConnLimits(t *testing.T) {
	cases := []struct {
		name string
		set  func(*ladder) // nil: the server's own values
		run  func(t *testing.T, s *Server, c *testClient)
	}{
		{"slowloris header is cut off at the header deadline", func(l *ladder) { l.readHeaderTimeout = 150 * time.Millisecond },
			func(t *testing.T, s *Server, c *testClient) {
				rc := dialRaw(t, c)
				start := time.Now()
				rc.send("POST /v1/t/enqueue-batch HTTP/1.1\r\nHost: dlzd\r\n")
				for i := 0; i < 20; i++ { // trickle well past the deadline; it must not be extended
					if _, err := io.WriteString(rc.Conn, "X-Pad: a\r\n"); err != nil {
						break
					}
					time.Sleep(25 * time.Millisecond)
				}
				rc.closed()
				if d := time.Since(start); d > 2*time.Second {
					t.Errorf("closed after %v, want ~150ms", d)
				}
				awaitNoConns(t, s)
			}},
		{"silent new connection is cut off at the header deadline", func(l *ladder) { l.readHeaderTimeout = 100 * time.Millisecond },
			func(t *testing.T, s *Server, c *testClient) {
				dialRaw(t, c).closed()
				awaitNoConns(t, s)
			}},
		{"oversize header answers 431", func(l *ladder) { l.maxHeaderBytes = 1024 },
			func(t *testing.T, s *Server, c *testClient) {
				rc := dialRaw(t, c)
				rc.send("GET /healthz HTTP/1.1\r\nX-Big: " + strings.Repeat("a", 4096) + "\r\n\r\n")
				rc.status(http.StatusRequestHeaderFieldsTooLarge)
				rc.closed()
				// And before the header ends, once it is past the cap.
				rc = dialRaw(t, c)
				rc.send("GET /healthz HTTP/1.1\r\nX-Big: " + strings.Repeat("a", 8192))
				rc.status(http.StatusRequestHeaderFieldsTooLarge)
				rc.closed()
				// A header inside the cap is served.
				rc = dialRaw(t, c)
				rc.send("GET /healthz HTTP/1.1\r\nX-Big: " + strings.Repeat("a", 512) + "\r\n\r\n")
				rc.status(http.StatusOK)
			}},
		{"declared body over 8 MiB answers 413 before it is read", nil,
			func(t *testing.T, s *Server, c *testClient) {
				rc := dialRaw(t, c)
				rc.send(fmt.Sprintf("POST /v1/t/enqueue-batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n", maxBody+1))
				rc.status(http.StatusRequestEntityTooLarge) // not one body byte was sent
				rc.closed()
				if tn, _ := s.tenant([]byte("t")); tn.opsEnqueued.Load() != 0 {
					t.Error("a refused request reached the pipeline")
				}
			}},
		{"refusals: chunked 411, length conflicts 400, version 505, expectation 417", nil,
			func(t *testing.T, s *Server, c *testClient) {
				for _, tc := range []struct {
					request string
					status  int
				}{
					{"POST /v1/t/enqueue-batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", http.StatusLengthRequired},
					{"POST /v1/t/enqueue-batch HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\nhello", http.StatusBadRequest},
					{"POST /v1/t/enqueue-batch HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!", http.StatusBadRequest},
					{"POST /v1/t/enqueue-batch HTTP/1.1\r\nContent-Length: 5x\r\n\r\nhello", http.StatusBadRequest},
					{"POST /v1/t/enqueue-batch HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello", http.StatusBadRequest},
					{"POST /v1/t/enqueue-batch HTTP/1.1\r\nContent-Length:\r\n\r\n", http.StatusBadRequest},
					{"GET /healthz HTTP/2.0\r\n\r\n", http.StatusHTTPVersionNotSupported},
					{"GET /healthz\r\n\r\n", http.StatusBadRequest},
					{"G(T /healthz HTTP/1.1\r\n\r\n", http.StatusBadRequest},
					{"GET /health z HTTP/1.1\r\n\r\n", http.StatusBadRequest},
					{"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", http.StatusBadRequest},
					{"GET /healthz HTTP/1.1\r\n folded: x\r\n\r\n", http.StatusBadRequest},
					{"GET /%zz HTTP/1.1\r\n\r\n", http.StatusBadRequest},
					{"POST /v1/t/enqueue-batch HTTP/1.1\r\nExpect: 200-ok\r\nContent-Length: 1\r\n\r\n", http.StatusExpectationFailed},
				} {
					rc := dialRaw(t, c)
					rc.send(tc.request)
					if resp, _ := rc.response(); resp.StatusCode != tc.status {
						t.Errorf("%q answered %d, want %d", tc.request, resp.StatusCode, tc.status)
					}
					rc.closed()
				}
				awaitNoConns(t, s)
				m := c.metrics()
				for series, want := range map[string]string{
					`dlzd_conn_protocol_errors_total{status="400"}`: "11",
					`dlzd_conn_protocol_errors_total{status="411"}`: "1",
					`dlzd_conn_protocol_errors_total{status="417"}`: "1",
					`dlzd_conn_protocol_errors_total{status="505"}`: "1",
					"dlzd_conn_protocol_errors_total":               "14",
				} {
					if got := lineValue(t, m, series); got != want {
						t.Errorf("%s = %s, want %s", series, got, want)
					}
				}
				// Two identical lengths are one length; no Content-Length on a
				// POST is an empty body, which the scanner declines.
				rc := dialRaw(t, c)
				rc.send(postRequest("/v1/t/enqueue-batch", enqueueOne, fmt.Sprintf("Content-Length: %d\r\n", len(enqueueOne))))
				rc.status(http.StatusOK)
				rc.send("POST /v1/t/enqueue-batch HTTP/1.1\r\n\r\n")
				if _, body := rc.status(http.StatusBadRequest); body != string(appendError(nil, badBody)) {
					t.Errorf("empty body answered %q, want %q", body, badBody)
				}
				// An escaped target is refused: the only target routed is a
				// plain origin-form path.
				rc.send("GET /%68ealthz HTTP/1.1\r\n\r\n")
				if _, body := rc.status(http.StatusBadRequest); !strings.Contains(body, "invalid request target") {
					t.Errorf("escaped target answered %q, want invalid request target", body)
				}
			}},
		{"Expect: 100-continue gets the interim 100, then the answer", nil,
			func(t *testing.T, s *Server, c *testClient) {
				rc := dialRaw(t, c)
				rc.send(fmt.Sprintf("POST /v1/t/enqueue-batch HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n", len(enqueueOne)))
				rc.status(http.StatusContinue) // sent while the body is still owed
				rc.send(enqueueOne)
				if _, body := rc.status(http.StatusOK); body != "{\"enqueued\":1}\n" {
					t.Errorf("answer = %q", body)
				}
				// With the body already there the interim answer is skipped.
				rc.send(postRequest("/v1/t/enqueue-batch", enqueueOne, "Expect: 100-continue\r\n"))
				rc.status(http.StatusOK)
			}},
		{"pipelined requests are answered in order", nil,
			func(t *testing.T, s *Server, c *testClient) {
				for _, n := range []int{2, 16} {
					rc := dialRaw(t, c)
					var burst strings.Builder
					for i := 1; i <= n; i++ {
						burst.WriteString(addRequest(i))
					}
					rc.send(burst.String()) // one Write
					for i := 1; i <= n; i++ {
						_, body := rc.status(http.StatusOK)
						var add CounterAddResponse
						if err := json.Unmarshal([]byte(body), &add); err != nil || add.Added != i {
							t.Fatalf("answer %d of %d = %q (%v)", i, n, body, err)
						}
					}
				}
				// A body split across writes, and a request behind it, still parse.
				rc := dialRaw(t, c)
				whole := addRequest(3) + addRequest(4)
				rc.send(whole[:len(whole)/3])
				time.Sleep(20 * time.Millisecond)
				rc.send(whole[len(whole)/3:])
				rc.status(http.StatusOK)
				if _, body := rc.status(http.StatusOK); !strings.Contains(body, `"added":4`) {
					t.Errorf("second answer = %q", body)
				}
			}},
		{"a request larger than the read buffer is read whole", nil,
			func(t *testing.T, s *Server, c *testClient) {
				rc := dialRaw(t, c)
				rc.send(addRequest(MaxWireBatch) + addRequest(1))
				if _, body := rc.status(http.StatusOK); !strings.Contains(body, fmt.Sprintf(`"added":%d`, MaxWireBatch)) {
					t.Errorf("answer = %q", body)
				}
				rc.status(http.StatusOK)
			}},
		{"Connection: close and HTTP/1.0 end the connection after the answer", nil,
			func(t *testing.T, s *Server, c *testClient) {
				rc := dialRaw(t, c)
				rc.send("GET /healthz HTTP/1.1\r\n\r\n")
				if resp, _ := rc.status(http.StatusOK); resp.Close {
					t.Error("a keep-alive answer says Connection: close")
				}
				rc.send("GET /healthz HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
				if resp, _ := rc.status(http.StatusOK); !resp.Close {
					t.Error("answer to Connection: close does not say so")
				}
				rc.closed() // the request pipelined behind it is not served
				rc = dialRaw(t, c)
				rc.send("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
				if resp, _ := rc.status(http.StatusOK); !resp.Close {
					t.Error("answer to HTTP/1.0 does not say Connection: close")
				}
				rc.closed()
				awaitNoConns(t, s)
			}},
		{"a half-closed client is answered", nil,
			func(t *testing.T, s *Server, c *testClient) {
				rc := dialRaw(t, c)
				rc.send(addRequest(2))
				if err := rc.Conn.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
				rc.status(http.StatusOK)
				rc.closed()
				awaitNoConns(t, s)
			}},
		{"an idle connection is closed at the idle deadline", func(l *ladder) { l.readTimeout = 150 * time.Millisecond },
			func(t *testing.T, s *Server, c *testClient) {
				rc := dialRaw(t, c)
				for i := 0; i < 3; i++ { // requests inside the deadline keep it open
					rc.send("GET /healthz HTTP/1.1\r\n\r\n")
					rc.status(http.StatusOK)
					time.Sleep(50 * time.Millisecond)
				}
				rc.closed()
				awaitNoConns(t, s)
				if got := lineValue(t, c.metrics(), "dlzd_conns_accepted_total"); got != "2" { // rc and the scrape
					t.Errorf("dlzd_conns_accepted_total = %s, want 2", got)
				}
			}},
		{"a client that never reads is cut off at the write deadline", func(l *ladder) { l.writeTimeout = 200 * time.Millisecond },
			func(t *testing.T, s *Server, c *testClient) {
				rc := dialRaw(t, c)
				_ = rc.Conn.(*net.TCPConn).SetReadBuffer(4 << 10)
				go func() { // tens of megabytes of answers, none of them read
					_, _ = io.WriteString(rc.Conn, strings.Repeat("GET /metrics HTTP/1.1\r\n\r\n", 8000))
				}()
				awaitNoConns(t, s)
			}},
		// The parked request must outwait the test, not answer 503 at its
		// deadline.
		{"Shutdown closes idle connections and waits for a request in flight", func(l *ladder) { l.requestTimeout = time.Minute },
			func(t *testing.T, s *Server, c *testClient) {
				idle, busy := dialRaw(t, c), dialRaw(t, c)
				idle.send("GET /healthz HTTP/1.1\r\n\r\n")
				idle.status(http.StatusOK)
				tn, _ := s.tenant([]byte("t"))
				tn.mu.Lock() // the request below parks on the pool lock, borrowing a pair
				busy.send(postRequest("/v1/t/enqueue-batch", enqueueOne, ""))
				for tn.inflight.Load() == 0 {
					time.Sleep(time.Millisecond)
				}
				done := make(chan error, 1)
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					done <- s.Shutdown(ctx)
				}()
				idle.closed()
				select {
				case err := <-done:
					t.Fatalf("Shutdown returned %v with a request in flight", err)
				case <-time.After(50 * time.Millisecond):
				}
				if nc, err := net.Dial("tcp", c.addr); err == nil {
					nc.Close()
					t.Error("a draining server still accepts connections")
				}
				tn.mu.Unlock()
				if resp, _ := busy.status(http.StatusOK); !resp.Close {
					t.Error("the drained request's answer does not say Connection: close")
				}
				busy.closed()
				if err := <-done; err != nil {
					t.Errorf("Shutdown = %v", err)
				}
				if open, _ := s.connStats(); open != 0 {
					t.Errorf("%d connections open after Shutdown", open)
				}
			}},
		{"a genuine handler panic kills its connection, not the daemon", nil,
			func(t *testing.T, s *Server, c *testClient) {
				var logged lockedBuffer
				log.SetOutput(&logged)
				defer log.SetOutput(os.Stderr)
				tn, _ := s.tenant([]byte("t"))
				// The bug: a pooled pair with no queue handle, so the next
				// enqueue, which borrows it, dereferences nil.
				tn.mu.Lock()
				tn.idle, tn.pairs = append(tn.idle, &pair{ch: tn.mc.NewHandle(1)}), tn.pairs+1
				tn.mu.Unlock()
				rc := dialRaw(t, c)
				rc.send(postRequest("/v1/t/enqueue-batch", enqueueOne, ""))
				rc.closed()
				awaitNoConns(t, s)
				if !strings.Contains(logged.String(), "panic serving") {
					t.Errorf("the panic was not reported; log: %q", logged.String())
				}
				// The envelope dropped the pair and released the in-flight slot
				// on the way out: the tenant, and the daemon, serve on with a
				// fresh pair.
				rc = dialRaw(t, c)
				rc.send(postRequest("/v1/t/enqueue-batch", enqueueOne, ""))
				rc.status(http.StatusOK)
				if n := tn.inflight.Load(); n != 0 {
					t.Errorf("in-flight = %d after the panic", n)
				}
				if !tn.mu.TryLock() {
					t.Fatal("the panicked request left the pool locked")
				}
				n := tn.pairs
				tn.mu.Unlock()
				if n != 1 {
					t.Errorf("the tenant owns %d pairs after the panic, want 1: the doomed one is dropped", n)
				}
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Queues: 2, Batch: 4})
			if tc.set != nil {
				tc.set(&s.ladder)
			}
			tc.run(t, s, serveLoopback(t, s))
		})
	}
}

// TestConnMetricsSurface asserts the connection-loop series are present from
// the first scrape, which is itself the first connection and first request.
func TestConnMetricsSurface(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 2})
	m := c.metrics()
	for series, want := range map[string]string{
		"dlzd_conns_open":                               "1",
		"dlzd_conns_accepted_total":                     "1",
		"dlzd_requests_total":                           "0", // the scrape is counted once it is answered
		"dlzd_conn_protocol_errors_total":               "0",
		`dlzd_conn_protocol_errors_total{status="431"}`: "0",
	} {
		if got := lineValue(t, m, series); got != want {
			t.Errorf("%s = %s, want %s", series, got, want)
		}
	}
	// An odd key case is declined, and the 400 is still a counted request.
	if code := c.post("/v1/t/delete-min-up-to", map[string]any{"Session": "s", "max": 1}, nil); code != http.StatusBadRequest {
		t.Errorf("odd key case answered %d, want 400", code)
	}
	m = c.metrics()
	if got := lineValue(t, m, "dlzd_requests_total"); got != "2" {
		t.Errorf("dlzd_requests_total = %s, want 2", got)
	}
}

// scriptedConn is a net.Conn that plays a fixed byte script in small reads
// and records what is written to it.
type scriptedConn struct {
	in    bytes.Reader
	chunk int
	out   bytes.Buffer
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.in.Read(p)
}
func (c *scriptedConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptedConn) Close() error                     { return nil }
func (c *scriptedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzConnRequest feeds arbitrary bytes to the connection loop. The parser
// must accept no request http.ReadRequest refuses or reads differently
// (method, path, length), must find the same header end however the
// bytes are cut into reads, and a whole connection of them must never panic,
// must answer only well-formed responses, and must not grow its read buffer
// past what actually arrived — a declared Content-Length allocates nothing.
func FuzzConnRequest(f *testing.F) {
	for _, seed := range []string{
		postRequest("/v1/t/enqueue-batch", enqueueOne, ""),
		postRequest("/v1/t/enqueue-batch", enqueueOne, "Expect: 100-continue\r\n") + addRequest(2),
		"GET /v1/t/counter/read?session=a%20b HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /metrics HTTP/1.0\r\n\r\n",
		"GET http://host/healthz HTTP/1.1\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\n\r\n",
		"GET /%68ealthz HTTP/1.1\nConnection: close\n\n",
		"POST /v1/t/session/close HTTP/1.1\r\nContent-Length: 8388609\r\n\r\n",
		"POST /v1/t/session/close HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 07\r\n\r\n{\"m\":4}",
		"POST /v1/t/session/close HTTP/1.1\r\nContent-Length: +7\r\n\r\n{\"m\":4}",
		"POST /v1/t/session/close HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"GET / HTTP/1.1\r\nX: a\r\n\tb\r\n\r\n",
		"GET / HTTP/1.1\r\nBad Name: a\r\n\r\n",
		"GET / HTTP/1.0\r\nHost:\nhost: a\n\r\n",
		"GET /a\x00b HTTP/1.1\r\n\r\n",
		"GET  / HTTP/1.1\r\n\r\n",
		"\r\nGET / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\n\r",
	} {
		f.Add([]byte(seed), uint8(7))
	}
	s := New(Config{Queues: 2, MaxTenants: 4})
	s.ladder.maxHeaderBytes = 256
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		if end, _ := headerEnd(data, 0); end >= 0 {
			// However the bytes arrive, the header ends where it ends.
			resume := 0
			for n := 1; n <= len(data); n++ {
				var got int
				if got, resume = headerEnd(data[:n], resume); got >= 0 {
					if got != end {
						t.Fatalf("header of %q ends at %d read whole, at %d read bytewise", data, end, got)
					}
					break
				}
			}
			if p := parseHeader(data[:end]); p.status == 0 {
				req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
				if err != nil {
					t.Fatalf("parser accepts %q, http.ReadRequest refuses it: %v", data[:end], err)
				}
				if req.Method != string(p.rq.method) || req.URL.Path != string(p.rq.path) ||
					req.ContentLength != int64(p.contentLength) || len(req.TransferEncoding) != 0 {
					t.Fatalf("parser reads %q as %s %q length %d, http.ReadRequest as %s %q length %d %v", data[:end],
						p.rq.method, p.rq.path, p.contentLength,
						req.Method, req.URL.Path, req.ContentLength, req.TransferEncoding)
				}
			}
		}
		nc := &scriptedConn{chunk: 1 + int(chunk)}
		nc.in.Reset(data)
		c := &conn{srv: s, nc: nc, rbuf: make([]byte, connBuf)}
		c.serve()
		if limit := 2 * (len(data) + connBuf); cap(c.rbuf) > limit {
			t.Fatalf("%d bytes of input grew the read buffer to %d", len(data), cap(c.rbuf))
		}
		for br := bufio.NewReader(&nc.out); ; {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("input %q: answers %q do not parse: %v", data, nc.out.String(), err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("input %q: answer body: %v", data, err)
			}
		}
	})
}

// TestShutdownDeadline pins the other exit of Shutdown: a request that
// outlives the grace period is cut off and the context's error returned.
func TestShutdownDeadline(t *testing.T) {
	s := New(Config{Queues: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Serve(ln); err != ErrServerClosed {
			t.Errorf("Serve = %v", err)
		}
	}()
	c := &testClient{t: t, addr: ln.Addr().String()}
	tn, _ := s.tenant([]byte("t"))
	tn.mu.Lock() // the request below parks on the pool lock, borrowing a pair
	rc := dialRaw(t, c)
	rc.send(postRequest("/v1/t/enqueue-batch", enqueueOne, ""))
	for tn.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("Shutdown = %v, want the deadline", err)
	}
	rc.closed()
	wg.Wait()
	tn.mu.Unlock() // the parked request now runs to its (unsendable) answer
	awaitNoConns(t, s)
	if err := s.Serve(ln); err != ErrServerClosed {
		t.Errorf("Serve after Shutdown = %v", err)
	}
}
