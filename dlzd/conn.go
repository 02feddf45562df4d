package dlzd

// The connection loop (DESIGN.md §8, "Connection loop"): Serve accepts, and
// each connection gets one goroutine that reads into one buffer, parses the
// subset of HTTP/1.1 the wire API needs, calls the pipeline on the body bytes
// where they lie, and appends the answer to one output buffer. Output is
// written only when the reader is about to block for more bytes, so a
// pipelined burst is answered in order with one write.

import (
	"bytes"
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"
)

// ErrServerClosed is Serve's return after Shutdown.
var ErrServerClosed = errors.New("dlzd: server closed")

const (
	// connBuf is a connection's read buffer at rest. Read and output buffers
	// grow with a request and its answer (bounded by maxHeaderBytes, maxBody
	// and flushAt) and are dropped past keepBuf once the connection idles.
	connBuf = 4 << 10
	keepBuf = 16 << 10
	// flushAt bounds the answers a pipelining client can make a connection
	// hold: past it they are written before the next request is read.
	flushAt = 64 << 10
)

// protocolStatuses are the answers the connection loop itself gives, to a
// request it will not hand to the pipeline; dlzd_conn_protocol_errors_total
// counts each.
var protocolStatuses = [...]int{
	http.StatusBadRequest,
	http.StatusLengthRequired,
	http.StatusRequestEntityTooLarge,
	http.StatusExpectationFailed,
	http.StatusRequestHeaderFieldsTooLarge,
	http.StatusHTTPVersionNotSupported,
}

// Connection states. A connection is idle from the moment its pending output
// is written and it has no byte of a next request, until a read returns.
// Shutdown closes exactly the connections it can move idle → closed; one
// that read a byte first finishes that request.
const (
	connActive int32 = iota
	connIdle
	connClosed
)

// Serve accepts connections on ln and serves each on its own goroutine until
// Shutdown, then returns ErrServerClosed; any other return is the listener's
// failure. ln is closed on return. Every connection is held to the socket
// limits: readTimeout, readHeaderTimeout, writeTimeout and maxHeaderBytes.
func (s *Server) Serve(ln net.Listener) error {
	defer ln.Close()
	if !s.trackListener(ln, true) {
		return ErrServerClosed
	}
	defer s.trackListener(ln, false)
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			// Out of descriptors, most likely: the connections being served
			// must not die for it. Wait, as net/http does, and accept again.
			if ne, ok := err.(net.Error); ok && ne.Temporary() { // what net/http's accept loop tests
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				log.Printf("dlzd: accept: %v; retrying in %v", err, backoff)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		c := &conn{srv: s, nc: nc, rbuf: make([]byte, connBuf)}
		if !s.trackConn(c, true) {
			nc.Close()
			continue
		}
		s.connsAccepted.Add(1)
		go c.serve()
	}
}

// Shutdown drains the connection loop: stop accepting, close idle
// connections, let each request already being read or served finish and be
// answered (with Connection: close), and return once every connection has
// gone. If ctx ends first the remaining connections are closed under their
// requests and ctx's error returned. It does not touch the journal; call
// Close after it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.connMu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	for c := range s.conns {
		c.closeIfIdle()
	}
	if s.drained == nil {
		s.drained = make(chan struct{})
		if len(s.conns) == 0 {
			close(s.drained)
		}
	}
	drained := s.drained
	s.connMu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.connMu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.connMu.Unlock()
		return ctx.Err()
	}
}

// trackListener adds or removes a serving listener; adding fails once
// draining.
func (s *Server) trackListener(ln net.Listener, add bool) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if !add {
		delete(s.listeners, ln)
		return true
	}
	if s.draining.Load() {
		return false
	}
	if s.listeners == nil {
		s.listeners = map[net.Listener]struct{}{}
		s.conns = map[*conn]struct{}{}
	}
	s.listeners[ln] = struct{}{}
	return true
}

// trackConn adds or removes a live connection; adding fails once draining,
// and the last removal of a draining server releases Shutdown.
func (s *Server) trackConn(c *conn, add bool) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if add {
		if s.draining.Load() {
			return false
		}
		s.conns[c] = struct{}{}
		return true
	}
	delete(s.conns, c)
	s.requests.Add(c.requests.Load())
	if s.drained != nil && len(s.conns) == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
	return true
}

// connStats reports the open connections and the requests answered so far.
func (s *Server) connStats() (open int, requests uint64) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	requests = s.requests.Load()
	for c := range s.conns {
		requests += c.requests.Load()
	}
	return len(s.conns), requests
}

// conn is one accepted connection and everything its requests reuse.
type conn struct {
	srv *Server
	nc  net.Conn

	state    atomic.Int32
	requests atomic.Uint64 // answered by the pipeline; folded into srv.requests on exit

	// rbuf[r:w] is what has been read and not yet consumed. A request is
	// parsed, and its body handed to the pipeline, in place.
	rbuf []byte
	r, w int
	// out is answers not yet written; body is the one being built.
	out, body []byte
	sc        scratch

	// readBy is the read deadline currently set on nc, so that a deadline
	// is set once per wait, not once per read.
	readBy time.Time
}

// parsed is a request's line and headers, as far as the loop reads them.
type parsed struct {
	rq            request
	contentLength int
	close         bool // the connection ends with this request's answer
	expect        bool // Expect: 100-continue
	status        int  // non-zero: refuse with this status and msg, then close
	msg           string
}

func (c *conn) serve() {
	defer func() {
		if rec := recover(); rec != nil {
			// A genuine panic, re-raised by tenantOp's envelope after it
			// dropped the request's handle pair: it takes this connection,
			// not the daemon.
			log.Printf("dlzd: panic serving %v: %v\n%s", c.nc.RemoteAddr(), rec, debug.Stack())
		}
		c.nc.Close()
		c.srv.trackConn(c, false)
	}()
	// Until its first byte a new connection is held to the header deadline,
	// not the idle one: it has yet to show it speaks at all.
	wait := c.srv.ladder.readHeaderTimeout
	for {
		if c.r == c.w {
			if !c.awaitRequest(wait) {
				return
			}
		}
		wait = c.srv.ladder.readTimeout
		if !c.serveRequest() {
			_ = c.flush() // a refusal or a Connection: close answer is still owed
			return
		}
	}
}

// awaitRequest writes pending output, marks the connection idle and blocks
// until the first bytes of the next request arrive. False means the
// connection is over: the peer closed, the idle deadline passed, or Shutdown
// took it.
func (c *conn) awaitRequest(wait time.Duration) bool {
	if c.flush() != nil {
		return false
	}
	c.trim()
	c.r, c.w = 0, 0
	c.state.Store(connIdle)
	if c.srv.draining.Load() {
		return false
	}
	c.setReadDeadline(time.Now().Add(wait))
	n, err := c.nc.Read(c.rbuf)
	if !c.state.CompareAndSwap(connIdle, connActive) {
		return false // Shutdown closed the connection under the read
	}
	c.w = n
	return n > 0 || err == nil
}

// closeIfIdle is Shutdown's half of the idle protocol.
func (c *conn) closeIfIdle() {
	if c.state.CompareAndSwap(connIdle, connClosed) {
		c.nc.Close()
	}
}

// trim drops buffers a large request or answer grew.
func (c *conn) trim() {
	if cap(c.rbuf) > keepBuf {
		c.rbuf = make([]byte, connBuf)
	}
	if cap(c.out) > keepBuf {
		c.out = nil
	}
	if cap(c.body) > keepBuf {
		c.body = nil
	}
	c.sc.trim()
}

func (c *conn) setReadDeadline(by time.Time) {
	if !by.Equal(c.readBy) {
		c.readBy = by
		_ = c.nc.SetReadDeadline(by) // fails only on a closed connection, which the read reports
	}
}

// flush writes pending output under the write deadline.
func (c *conn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_ = c.nc.SetWriteDeadline(time.Now().Add(c.srv.ladder.writeTimeout)) // as setReadDeadline: the write reports it
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	return err
}

// fill reads more bytes after rbuf[r:w], making room by moving the unread
// bytes to the front or, when they fill the buffer, doubling it up to limit,
// which the caller's request has yet to reach. It is the loop's one blocking
// read besides awaitRequest's, so it flushes first: a client waiting for an
// earlier answer (or a 100 Continue) before it sends more would otherwise
// wait forever.
func (c *conn) fill(by time.Time, limit int) error {
	if err := c.flush(); err != nil {
		return err
	}
	if c.w == len(c.rbuf) {
		if c.r == 0 {
			grown := make([]byte, min(2*len(c.rbuf), limit))
			copy(grown, c.rbuf)
			c.rbuf = grown
		} else {
			c.w = copy(c.rbuf, c.rbuf[c.r:c.w])
			c.r = 0
		}
	}
	c.setReadDeadline(by)
	n, err := c.nc.Read(c.rbuf[c.w:])
	c.w += n
	if n > 0 {
		return nil
	}
	return err
}

// serveRequest reads the rest of the request that starts at rbuf[r], answers
// it into out, and reports whether the connection goes on to another.
func (c *conn) serveRequest() bool {
	start := time.Now()
	lim := &c.srv.ladder
	headerBy, bodyBy := start.Add(lim.readHeaderTimeout), start.Add(lim.readTimeout)
	// The header block: everything up to the first empty line.
	end, scanned := -1, 0
	for {
		if end, scanned = headerEnd(c.rbuf[c.r:c.w], scanned); end >= 0 {
			break
		}
		if c.w-c.r > lim.maxHeaderBytes {
			return c.refuse(http.StatusRequestHeaderFieldsTooLarge, "request header too large")
		}
		if c.fill(headerBy, lim.maxHeaderBytes+connBuf) != nil {
			return false // closed or timed out mid-header: nothing to answer
		}
	}
	if end > lim.maxHeaderBytes {
		return c.refuse(http.StatusRequestHeaderFieldsTooLarge, "request header too large")
	}
	p := parseHeader(c.rbuf[c.r : c.r+end])
	if p.status != 0 {
		return c.refuse(p.status, p.msg)
	}
	// The body, in place behind the header. fill may move or regrow rbuf,
	// so a header whose body arrived later is parsed again where it ended up.
	if total := end + p.contentLength; c.w-c.r < total {
		if p.expect {
			c.out = append(c.out, "HTTP/1.1 100 Continue\r\n\r\n"...)
		}
		for c.w-c.r < total {
			if c.fill(bodyBy, total) != nil {
				return false
			}
		}
		p = parseHeader(c.rbuf[c.r : c.r+end])
	}
	p.rq.body = c.rbuf[c.r+end : c.r+end+p.contentLength]
	p.rq.arrival = start
	c.r += end + p.contentLength

	var rp reply
	c.body, rp = c.srv.handle(&c.sc, &p.rq, c.body[:0])
	c.requests.Add(1)
	if c.srv.draining.Load() {
		p.close = true
	}
	c.out = appendResponse(c.out, rp, c.body, p.close)
	if len(c.out) >= flushAt && c.flush() != nil {
		return false
	}
	return !p.close
}

// refuse answers a request the loop will not serve and ends the connection:
// past a bad header or an unread body there is no telling where the next
// request starts.
func (c *conn) refuse(status int, msg string) bool {
	for i, known := range protocolStatuses {
		if known == status {
			c.srv.protocolErrors[i].Add(1)
		}
	}
	c.body = appendError(c.body[:0], msg)
	c.out = appendResponse(c.out, reply{status: status}, c.body, true)
	return false
}

// headerEnd finds the end of a header block in b — the offset just past the
// first empty line — resuming at from, where an earlier call stopped. It
// returns -1 and where to resume when the block is not all there yet.
func headerEnd(b []byte, from int) (end, resume int) {
	for i := from; ; {
		nl := bytes.IndexByte(b[i:], '\n')
		if nl < 0 {
			return -1, len(b)
		}
		i += nl + 1
		switch {
		case i < len(b) && b[i] == '\n':
			return i + 1, 0
		case i+1 < len(b) && b[i] == '\r' && b[i+1] == '\n':
			return i + 2, 0
		case i+1 >= len(b):
			return -1, i - 1 // the line end itself: what follows decides
		}
	}
}

// parseHeader parses a complete header block: the request line, and of the
// headers Content-Length, Transfer-Encoding, Connection, Expect and Host (at
// most one); the rest are checked for shape and skipped. It accepts no
// request http.ReadRequest would refuse or read differently (FuzzConnRequest).
func parseHeader(b []byte) (p parsed) {
	bad := func(status int, msg string) parsed { return parsed{status: status, msg: msg} }
	line, b := cutLine(b)
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := bytes.LastIndexByte(line, ' ')
	if sp1 <= 0 || sp2 == sp1 {
		return bad(http.StatusBadRequest, "malformed request line")
	}
	method, target, proto := line[:sp1], line[sp1+1:sp2], line[sp2+1:]
	for _, ch := range method {
		if !tokenByte[ch] {
			return bad(http.StatusBadRequest, "invalid method")
		}
	}
	switch string(proto) {
	case "HTTP/1.1":
	case "HTTP/1.0":
		p.close = true // and a 1.0 keep-alive request is not honoured
	default:
		return bad(http.StatusHTTPVersionNotSupported, "HTTP/1.0 or HTTP/1.1 required")
	}
	p.rq.method = method
	if !p.rq.setTarget(target) {
		return bad(http.StatusBadRequest, "invalid request target")
	}

	var length []byte
	chunked, host := false, false
	for {
		line, b = cutLine(b)
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return bad(http.StatusBadRequest, "malformed header line")
		}
		name, value := line[:colon], bytes.Trim(line[colon+1:], " \t")
		for _, ch := range name {
			if !tokenByte[ch] {
				return bad(http.StatusBadRequest, "malformed header name")
			}
		}
		for _, ch := range value {
			if ch < ' ' && ch != '\t' || ch == 0x7f {
				return bad(http.StatusBadRequest, "malformed header value")
			}
		}
		switch {
		case equalFold(name, "content-length"):
			if length != nil && !bytes.Equal(length, value) {
				return bad(http.StatusBadRequest, "conflicting Content-Length headers")
			}
			n, err := strconv.ParseUint(string(value), 10, 63)
			if err != nil {
				return bad(http.StatusBadRequest, "malformed Content-Length")
			}
			if n > maxBody {
				return bad(http.StatusRequestEntityTooLarge, "request body too large")
			}
			length, p.contentLength = value, int(n)
		case equalFold(name, "transfer-encoding"):
			chunked = true
		case equalFold(name, "host"):
			if host {
				return bad(http.StatusBadRequest, "more than one Host header")
			}
			host = true
		case equalFold(name, "connection"):
			if hasToken(value, "close") {
				p.close = true
			}
		case equalFold(name, "expect"):
			if !equalFold(value, "100-continue") {
				return bad(http.StatusExpectationFailed, "only Expect: 100-continue is understood")
			}
			p.expect = true
		}
	}
	switch {
	case chunked && length != nil:
		return bad(http.StatusBadRequest, "both Content-Length and Transfer-Encoding")
	case chunked:
		return bad(http.StatusLengthRequired, "Content-Length required: chunked bodies are not accepted")
	}
	return p
}

// setTarget sets the request's path from an origin-form target and drops the
// query, which no operation reads. Any other target, or an escape before the
// query, is refused: the daemon's paths need neither.
func (rq *request) setTarget(target []byte) bool {
	for _, ch := range target {
		if ch <= ' ' || ch == 0x7f {
			return false
		}
	}
	rq.path, _, _ = bytes.Cut(target, []byte{'?'})
	return len(target) > 0 && target[0] == '/' && bytes.IndexByte(rq.path, '%') < 0
}

// cutLine splits b after its first line, dropping the line's CRLF or LF.
func cutLine(b []byte) (line, rest []byte) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return b, nil
	}
	line, rest = b[:nl], b[nl+1:]
	if nl > 0 && line[nl-1] == '\r' {
		line = line[:nl-1]
	}
	return line, rest
}

// tokenByte marks the bytes of an RFC 9110 token: methods and header names.
var tokenByte = func() (t [256]bool) {
	for ch := 0; ch < 256; ch++ {
		t[ch] = '0' <= ch && ch <= '9' || 'a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' ||
			bytes.IndexByte([]byte("!#$%&'*+-.^_`|~"), byte(ch)) >= 0
	}
	return t
}()

// equalFold reports whether b is lower, ASCII case folded. lower must be
// lower-case.
func equalFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, ch := range b {
		if 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		if ch != lower[i] {
			return false
		}
	}
	return true
}

// hasToken reports whether a comma-separated header value lists token.
func hasToken(value []byte, token string) bool {
	for len(value) > 0 {
		item := value
		if comma := bytes.IndexByte(value, ','); comma >= 0 {
			item, value = value[:comma], value[comma+1:]
		} else {
			value = nil
		}
		if equalFold(bytes.Trim(item, " \t"), token) {
			return true
		}
	}
	return false
}

// appendResponse appends one framed answer: status line, Content-Type,
// Content-Length, Retry-After and Connection: close where they apply, body.
func appendResponse(dst []byte, rp reply, body []byte, close bool) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(rp.status), 10)
	dst = append(dst, ' ')
	dst = append(dst, http.StatusText(rp.status)...)
	if rp.text {
		dst = append(dst, "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: "...)
	} else {
		dst = append(dst, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	}
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	if rp.retryAfter > 0 {
		dst = append(dst, "\r\nRetry-After: "...)
		dst = strconv.AppendInt(dst, int64(rp.retryAfter), 10)
	}
	if close {
		dst = append(dst, "\r\nConnection: close"...)
	}
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}
