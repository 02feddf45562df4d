package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/dlzd"
)

// spanHeader carries a traced request's id to the span-recording handler in
// front of the embedded server, so both sides file their spans under it.
const spanHeader = "X-Bench-Id"

// caller is one closed-loop client: it sends its requests in order, the next
// only after the previous answer is read and accounted.
type caller struct {
	idx  int
	s    *stream
	reqs []request
	pos  int // next request to send

	lat      []uint32 // per request of the current drive: nanoseconds since the previous one completed
	led      ledger
	dequeued [numTenants][]uint64
	failed   int64 // element operations not acknowledged
	rejected int64 // 429 and 503 answers
	firstErr error

	log *spanLog
	rec *recorder

	// probe, when set, is sent a copy of every probeEvery-th request, and
	// the time it takes to answer is kept beside the latencies: the speed
	// of the box at that moment (probe.go).
	probe *prober

	// The caller's own keep-alive connection to a daemon, and how many
	// times it had to dial one: once, if connections are reused.
	conn  net.Conn
	br    *bufio.Reader
	dials int

	// Scratch reused across requests, so that the generator allocates as
	// little as it can beside the program under test.
	out    []byte
	values []uint64
	buf    bytes.Buffer
	rd     bytes.Reader
	w      memWriter
}

func newCallers(s *stream, rec *recorder) []*caller {
	cs := make([]*caller, len(s.callers))
	for i := range cs {
		cs[i] = &caller{idx: i, s: s, reqs: s.callers[i], rec: rec, log: rec.newLog()}
	}
	return cs
}

// target is one boundary of the stack a stream can be sent to. do carries out
// one request and reports how many of its element operations were
// acknowledged; for a delete-min-up-to it leaves the returned values in
// c.values.
type target interface {
	do(c *caller, r *request) (done int, err error)
}

// drive sends the caller's next n requests to t.
func (c *caller) drive(t target, n int) {
	c.lat = make([]uint32, 0, n)
	every := probeSpacing(n)
	if c.probe != nil {
		c.probe.ns = make([]uint32, 0, n/every)
	}
	prev := time.Now()
	for i := c.pos; i < c.pos+n; i++ {
		r := &c.reqs[i]
		c.values = c.values[:0]
		done, err := t.do(c, r)
		if err != nil && c.firstErr == nil {
			c.firstErr = err
		}
		c.failed += int64(int(r.n) - done)
		switch r.op {
		case opEnqueue:
			c.led.enqueued[r.tenant] += int64(done)
		case opDeleteMin:
			c.led.dequeued[r.tenant] += int64(len(c.values))
			c.dequeued[r.tenant] = append(c.dequeued[r.tenant], c.values...)
		case opCounterAdd:
			if done == int(r.n) {
				for _, d := range c.s.deltasOf(r) {
					c.led.deltaSum[r.tenant] += d
				}
			}
		}
		now := time.Now()
		c.lat = append(c.lat, uint32(now.Sub(prev)))
		if c.log != nil {
			c.log.spans = append(c.log.spans, span{Name: "client.roundtrip", ID: uint64(r.id), Start: c.rec.since(prev), End: c.rec.since(now)})
		}
		prev = now
		if c.probe != nil && (i-c.pos)%every == every-1 {
			// c.out still holds the request just answered. The probe's
			// time is no request's: the clock restarts after it.
			if err := c.probe.roundTrip(c.out); err != nil {
				c.failed++
				if c.firstErr == nil {
					c.firstErr = err
				}
			}
			prev = time.Now()
			c.probe.ns = append(c.probe.ns, uint32(prev.Sub(now)))
		}
	}
	c.pos += n
}

// driveAll has every caller send its next share of requests, share being the
// given fraction of its stream, and returns the per-caller latencies.
func driveAll(cs []*caller, t target, from, to float64) [][]uint32 {
	runCallers(len(cs), func(i int) {
		c := cs[i]
		c.pos = int(from * float64(len(c.reqs)))
		c.drive(t, int(to*float64(len(c.reqs)))-c.pos)
	})
	lat := make([][]uint32, len(cs))
	for i, c := range cs {
		lat[i] = c.lat
	}
	return lat
}

// endpoint is anything that answers the dlzd wire protocol: the daemon over a
// socket, or a handler called in-process. call leaves the response body in
// c.buf.
type endpoint interface {
	call(c *caller, method, path string, body []byte, id uint32) (status int, err error)
}

// httpEndpoint reaches a daemon over loopback. Every caller speaks HTTP/1.1
// itself over one keep-alive connection of its own, which it dials on first
// use and never again: one goroutine per connection, blocked in a read while
// the daemon works. net/http's Transport serves a connection with a read and
// a write goroutine beside the caller's; on the box the benchmark was defined
// on, those hand-offs inside the generator were 40 % of the round trip
// (median 120 us against 73 us), which would make this a benchmark of its own
// client.
type httpEndpoint struct {
	addr string // host:port
}

// hangUp closes the caller's connection, and its probe's, if it has one.
func (c *caller) hangUp() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
	if c.probe != nil {
		c.probe.c.hangUp()
	}
}

// dial connects the caller, unless it is connected, and counts the dial.
func (e httpEndpoint) dial(c *caller) error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.Dial("tcp", e.addr)
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReader(conn)
	c.dials++
	return nil
}

func (e httpEndpoint) call(c *caller, method, path string, body []byte, id uint32) (int, error) {
	if err := e.dial(c); err != nil {
		return 0, err
	}
	out := append(c.out[:0], method...)
	out = append(out, ' ')
	out = append(out, path...)
	out = append(out, " HTTP/1.1\r\nHost: dlzd\r\nContent-Type: application/json\r\nContent-Length: "...)
	out = strconv.AppendInt(out, int64(len(body)), 10)
	if c.log != nil {
		out = append(out, "\r\n"+spanHeader+": "...)
		out = strconv.AppendUint(out, uint64(id), 10)
	}
	out = append(out, "\r\n\r\n"...)
	out = append(out, body...)
	c.out = out
	status, err := e.exchange(c)
	if err != nil {
		c.hangUp() // the connection's state is unknown: the next call dials again, and is counted
	}
	return status, err
}

// exchange writes the request in c.out and reads the answer, to its end so
// that the connection is ready for the next request, into c.buf.
func (e httpEndpoint) exchange(c *caller) (int, error) {
	if _, err := c.conn.Write(c.out); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// handlerEndpoint calls a handler in-process: JSON, admission and the lease
// path, without a socket.
type handlerEndpoint struct {
	h http.Handler
}

// memWriter is the least http.ResponseWriter: a header map, a status and the
// caller's response buffer.
type memWriter struct {
	header http.Header
	status int
	body   *bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (e handlerEndpoint) call(c *caller, method, path string, body []byte, id uint32) (int, error) {
	c.rd.Reset(body)
	c.buf.Reset()
	if c.w.header == nil {
		c.w.header = http.Header{}
	}
	clear(c.w.header)
	c.w.status, c.w.body = http.StatusOK, &c.buf
	req := &http.Request{Method: method, URL: &url.URL{Path: path}, Body: io.NopCloser(&c.rd), ContentLength: int64(len(body))}
	e.h.ServeHTTP(&c.w, req)
	return c.w.status, nil
}

// opPaths[t][op] is the request path of operation op on tenant t.
var opPaths = func() (p [numTenants][numOps]string) {
	for t := range p {
		for op := range p[t] {
			p[t][op] = "/v1/" + tenantName(t) + "/" + opPath[op]
		}
	}
	return p
}()

// wireTarget sends requests through the wire protocol, pre-encoded bodies in,
// delete-min-up-to answers scanned for their values.
type wireTarget struct{ ep endpoint }

func (t wireTarget) do(c *caller, r *request) (int, error) {
	status, err := t.ep.call(c, http.MethodPost, opPaths[r.tenant][r.op], c.s.bodyOf(r), r.id)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			c.rejected++
		}
		return 0, fmt.Errorf("%s answered %d: %s", opPaths[r.tenant][r.op], status, bytes.TrimSpace(c.buf.Bytes()))
	}
	if r.op != opDeleteMin {
		return int(r.n), nil
	}
	c.values = scanValues(c.buf.Bytes(), c.values)
	return len(c.values), nil
}

// scanValues appends to dst the number after every "value": in a
// delete-min-up-to answer. The answer's shape is fixed by the wire.go types,
// and a hand scan costs the generator a tenth of what encoding/json would;
// the checker catches a value it misreads as a phantom.
func scanValues(body []byte, dst []uint64) []uint64 {
	key := []byte(`"value":`)
	for {
		i := bytes.Index(body, key)
		if i < 0 {
			return dst
		}
		body = body[i+len(key):]
		var v uint64
		j := 0
		for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
			v = v*10 + uint64(body[j]-'0')
		}
		if j > 0 {
			dst = append(dst, v)
		}
		body = body[j:]
	}
}

// control sends one control-plane request (prefill, session close, stats)
// and decodes a 200 answer into out when out is not nil.
func control(ep endpoint, c *caller, method, path string, body []byte, out any) error {
	status, err := ep.call(c, method, path, body, 0)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s answered %d: %s", method, path, status, bytes.TrimSpace(c.buf.Bytes()))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(c.buf.Bytes(), out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// prefill sends the stream's prefill through one session and closes it, so
// that every element is published before the callers start; it returns what
// was acknowledged.
func prefill(ep endpoint, s *stream) (ledger, error) {
	var led ledger
	c := &caller{s: s}
	defer c.hangUp()
	for i := range s.prefill {
		r := &s.prefill[i]
		if err := control(ep, c, http.MethodPost, opPaths[r.tenant][r.op], s.bodyOf(r), nil); err != nil {
			return led, err
		}
		led.enqueued[r.tenant] += int64(r.n)
	}
	body, err := json.Marshal(dlzd.SessionCloseRequest{Session: prefillSession})
	if err != nil {
		return led, err
	}
	for t := 0; t < numTenants; t++ {
		if err := control(ep, c, http.MethodPost, "/v1/"+tenantName(t)+"/session/close", body, nil); err != nil {
			return led, err
		}
	}
	return led, nil
}

// fetchStats reads every tenant's audit surface.
func fetchStats(ep endpoint, s *stream) ([]dlzd.StatsResponse, error) {
	c := &caller{s: s}
	defer c.hangUp()
	stats := make([]dlzd.StatsResponse, numTenants)
	for t := range stats {
		if err := control(ep, c, http.MethodGet, "/v1/"+tenantName(t)+"/stats", nil, &stats[t]); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// checkDials verifies that every caller dialled exactly one connection, which
// is what reuse means: the defect of cmd/dlzd-load, whose responses are
// closed unread, shows here as one dial per request.
func checkDials(cs []*caller, ck *checker) (dials int) {
	for _, c := range cs {
		dials += c.dials
	}
	if dials != len(cs) {
		ck.failf(1, "%d connections were dialled for %d callers: connections are not being reused", dials, len(cs))
	}
	return dials
}

// hangUpAll closes every caller's connection.
func hangUpAll(cs []*caller) {
	for _, c := range cs {
		c.hangUp()
	}
}

// settle folds the callers' accounts into one and runs the delivery check.
func settle(cs []*caller, s *stream, led ledger, ck *checker) (total ledger, attempted int64) {
	total = led
	var dequeued [numTenants][]uint64
	for _, c := range cs {
		total.add(&c.led)
		for t := range dequeued {
			dequeued[t] = append(dequeued[t], c.dequeued[t]...)
		}
		for _, r := range c.reqs[:c.pos] {
			attempted += int64(r.n)
		}
		if c.failed > 0 {
			ck.failf(c.failed, "%d element operations were not acknowledged; first error: %v", c.failed, c.firstErr)
		}
	}
	ck.checkDequeued(s, dequeued)
	return total, attempted
}
