package dlzd

// The transport-free request pipeline (DESIGN.md §8): route → admission →
// borrow a handle pair → op → journal → give the pair back → encode. A
// transport — the connection loop of conn.go, or the http.Handler adapter
// below — hands handle the parts of one request as byte slices and gets back
// a status, a Retry-After hint and the response body appended to a buffer it
// owns. Nothing here knows about sockets, http.ResponseWriter or contexts; on
// the three mutating requests and counter/read, with durability off, nothing
// here allocates.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/fail"
	"repro/internal/wal"
)

// maxBody caps a request body; a transport answers 413 past it.
const maxBody = 8 << 20

// request is one wire request as its transport parsed it. The slices are
// only read, and only until handle returns.
type request struct {
	method, path, body []byte
	// arrival is when the transport began to read the request. The
	// deadline is arrival + requestTimeout; the shed EWMA samples the time
	// from arrival to the answer.
	arrival time.Time
}

// reply is an answer without its body.
type reply struct {
	status     int
	retryAfter int  // Retry-After seconds; 0 sends no header
	text       bool // the /metrics exposition; every other body is JSON
}

// scratch is the working set of one request, reused by the next one on the
// same connection (or drawn from scratchPool by the adapter) so that a warm
// request allocates nothing.
type scratch struct {
	rq    wireRequest
	items []WireItem // what a delete-min-up-to removed
	wal   []wal.Item // the journal record's copy of the applied items
	rec   wal.Record
	// pair is the handle pair the running op borrowed. tenantOp's envelope
	// borrows it and gives it back on every exit; ops only use it.
	pair *pair
}

// keepItems is the element capacity a scratch keeps between requests; a
// larger batch's arrays are dropped once it is answered.
const keepItems = 256

// trim drops backing arrays a large request grew, so that what an idle
// connection holds stays small.
func (sc *scratch) trim() {
	if cap(sc.rq.items) > keepItems {
		sc.rq.items = nil
	}
	if cap(sc.rq.deltas) > keepItems {
		sc.rq.deltas = nil
	}
	if cap(sc.items) > keepItems {
		sc.items = nil
	}
	if cap(sc.wal) > keepItems {
		sc.wal = nil
	}
}

// walItems copies items into the scratch's journal buffer.
func (sc *scratch) walItems(items []WireItem) []wal.Item {
	sc.wal = sc.wal[:0]
	for _, it := range items {
		sc.wal = append(sc.wal, wal.Item(it))
	}
	return sc.wal
}

// deadlineStride is how many items an apply loop runs between two reads of
// the clock against the request deadline. The first read is after item 64,
// so a batch of 64 or fewer runs without one.
const deadlineStride = 64

// deadline is rq's arrival plus the request timeout.
func (s *Server) deadline(rq *request) time.Time {
	return rq.arrival.Add(s.ladder.requestTimeout)
}

// overdue reports whether an apply loop that has run n items must stop for
// rq's deadline: it reads the clock only at every deadlineStride-th item,
// and inlines into the loop.
func (s *Server) overdue(rq *request, n int) bool {
	return n%deadlineStride == 0 && n > 0 && s.expired(rq)
}

// expired reports whether rq's deadline has passed.
func (s *Server) expired(rq *request) bool {
	return !time.Now().Before(s.deadline(rq))
}

func errorReply(dst []byte, status int, msg string) ([]byte, reply) {
	return appendError(dst, msg), reply{status: status}
}

// handle routes one request and appends its answer's body to dst. The path
// grammar: /healthz, /readyz, /metrics, and /v1/{tenant}/{op} where op is one
// of enqueue-batch, delete-min-up-to, counter/add-batch, counter/read,
// session/close, stats.
//
// /healthz is liveness: 200 for the whole process lifetime, including WAL
// replay and graceful drain — restarting a recovering daemon only makes it
// recover again. /readyz is readiness: 503 until recovery completes and 503
// again once drain begins, so orchestrators stop routing without killing
// the process. /metrics stays scrapeable throughout; only /v1 traffic is
// refused while not ready or draining.
func (s *Server) handle(sc *scratch, rq *request, dst []byte) ([]byte, reply) {
	switch path := rq.path; {
	case string(path) == "/healthz":
		return append(dst, "{\"ok\":true}\n"...), reply{status: http.StatusOK}
	case string(path) == "/readyz":
		return s.readyz(dst)
	case string(path) == "/metrics":
		return s.appendMetrics(dst), reply{status: http.StatusOK, text: true}
	case len(path) >= 4 && string(path[:4]) == "/v1/":
		if s.closed.Load() {
			return errorReply(dst, http.StatusServiceUnavailable, "server closed")
		}
		if !s.ready.Load() {
			return errorReply(dst, http.StatusServiceUnavailable, "recovering: journal replay in progress")
		}
		return s.tenantOp(sc, rq, path[4:], dst)
	}
	return errorReply(dst, http.StatusNotFound, "unknown path")
}

// validTenantName bounds tenant names to a filesystem/metrics-safe alphabet.
func validTenantName(name []byte) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// tenantOp runs one /v1/{tenant}/{op} request through the degradation ladder
// (DESIGN.md §10): static in-flight backpressure, then adaptive load
// shedding, then the op itself under an envelope that gives the borrowed
// handle pair back on every exit — publishing what the op left in its
// handles, or dropping the pair if they fault — and turns an injected panic
// into a 500.
func (s *Server) tenantOp(sc *scratch, rq *request, rest, dst []byte) (out []byte, rp reply) {
	slash := bytes.IndexByte(rest, '/')
	if slash < 0 || !validTenantName(rest[:slash]) {
		return errorReply(dst, http.StatusNotFound, "bad tenant path")
	}
	op := rest[slash+1:]
	t, ok := s.tenant(rest[:slash])
	if !ok {
		return errorReply(dst, http.StatusForbidden, "tenant limit reached")
	}
	if !t.acquire() {
		return appendError(dst, "tenant in-flight budget exceeded"), reply{status: http.StatusTooManyRequests, retryAfter: 1}
	}
	defer t.release()
	var mutating, paired bool
	switch string(op) {
	case "enqueue-batch", "delete-min-up-to", "counter/add-batch":
		mutating = true
		if s.log() != nil {
			// The tenant's ops gate (read side). The snapshotter takes the
			// write side, so a capture sees no journaled operation in
			// flight. Registered before the envelope: defers run LIFO, so
			// the gate is still held while the envelope gives the pair back
			// — the give-back publishes elements, which must not interleave
			// with a capture either.
			t.ops.RLock()
			defer t.ops.RUnlock()
		}
		fallthrough
	case "counter/read":
		paired = true
	}
	if mutating {
		if retryAfter, shed := t.shed(); shed {
			return appendError(dst, "load shed"), reply{status: http.StatusTooManyRequests, retryAfter: retryAfter}
		}
	}
	defer func() {
		rec := recover()
		site, injected := fail.IsInjectedPanic(rec)
		if p := sc.pair; p != nil {
			sc.pair = nil
			t.giveBack(p, rec == nil || injected)
		}
		if mutating {
			// One clock read serves the shed EWMA's sample and the shed
			// level's dwell check.
			now := time.Now()
			t.observeLatency(now.Sub(rq.arrival), now)
		}
		if rec != nil {
			if !injected {
				// A genuine bug: the pair is flushed and dropped, but the
				// panic is re-raised so it is reported, not absorbed. The
				// transport decides how much dies with it: one connection.
				panic(rec)
			}
			t.panicsRecovered.Add(1)
			out, rp = errorReply(dst, http.StatusInternalServerError, "handler fault at "+site)
		}
	}()
	if fail.Enabled {
		if err := fail.Inject(fail.SiteDlzdHandlerPre); err != nil {
			return errorReply(dst, http.StatusInternalServerError, "injected fault before handler")
		}
	}
	if paired {
		sc.pair = t.borrow()
	}
	switch string(op) {
	case "enqueue-batch":
		return s.mutate(sc, t, rq, hotEnqueueBatch, dst)
	case "delete-min-up-to":
		return s.mutate(sc, t, rq, hotDeleteMinUpTo, dst)
	case "counter/add-batch":
		return s.mutate(sc, t, rq, hotCounterAddBatch, dst)
	case "counter/read":
		return opCounterRead(sc, rq, dst)
	case "session/close":
		return opSessionClose(rq, dst)
	case "stats":
		return s.opStats(t, rq, dst)
	}
	return errorReply(dst, http.StatusNotFound, "unknown operation")
}

// postFault is the dlzd/handler/post failpoint, which mutate passes between
// the journal and the success body: an injected error or panic there models
// the classic applied-but-unacknowledged fault — the units are committed and
// journaled, but the client sees a 500 instead of the success body.
func postFault() bool {
	return fail.Enabled && fail.Inject(fail.SiteDlzdHandlerPost) != nil
}

// decodeHot checks the method and decodes a hot request's body into sc.rq;
// a non-zero status is the refusal to answer with.
func (s *Server) decodeHot(sc *scratch, op hotOp, rq *request) (status int, msg string) {
	if string(rq.method) != http.MethodPost {
		return http.StatusMethodNotAllowed, "POST required"
	}
	if !sc.rq.scan(op, rq.body) {
		return http.StatusBadRequest, badBody
	}
	return 0, ""
}

// mutation is the data the three mutating requests differ in besides the
// unit they apply, the ledger they commit and the answer they encode. mutate
// indexes mutations by hotOp.
type mutation struct {
	bound string         // the refusal of a batch outside [1, MaxWireBatch], less the range
	unit  string         // what a deadline 503 counts; a delete-min truncates instead
	rec   wal.RecordType // the journal record of the applied units
}

var mutations = [...]mutation{
	hotEnqueueBatch:    {"items must number in", "items", wal.RecEnqueue},
	hotDeleteMinUpTo:   {"max must be in", "", wal.RecDeleteMin},
	hotCounterAddBatch: {"deltas must number in", "deltas", wal.RecCounterAdd},
}

// mutate runs an enqueue-batch, delete-min-up-to or counter/add-batch
// request on the pair the envelope borrowed: decode, apply the units,
// journal, answer.
//
// The applied count (and a counter add's weight) commits by defer, so it is
// exact on every exit — a clean 200, an injected mid-batch abort, a deadline
// overrun, or a panic unwinding to the recovery envelope. Conservation
// audits rely on it: the ledger counts exactly the units that entered or
// left the borrowed handle, so drained elements are counted even when a
// later fault turns the answer into a 500 (at-most-once delivery), and
// CounterDeltaSum equals the counter's exact value at quiescence. The
// journal record mirrors the same discipline: appended explicitly before the
// 200 on the ack path, and by defer on every other exit, so the journal
// records exactly the applied operations (an error or panic exit journals
// applied-but-unacknowledged work — the documented at-least-once overshoot a
// restart may resurface).
func (s *Server) mutate(sc *scratch, t *tenant, rq *request, op hotOp, dst []byte) ([]byte, reply) {
	m := &mutations[op]
	if status, msg := s.decodeHot(sc, op, rq); status != 0 {
		return errorReply(dst, status, msg)
	}
	n := sc.rq.max
	switch op {
	case hotEnqueueBatch:
		n = len(sc.rq.items)
	case hotCounterAddBatch:
		n = len(sc.rq.deltas)
	}
	if n < 1 || n > MaxWireBatch {
		return errorReply(dst, http.StatusBadRequest, fmt.Sprintf("%s [1, %d]", m.bound, MaxWireBatch))
	}
	p := sc.pair
	sc.items = sc.items[:0]
	if op == hotDeleteMinUpTo && sc.items == nil {
		sc.items = make([]WireItem, 0, 8) // never nil: an empty drain answers "items":[]
	}
	applied, weight := 0, uint64(0)
	logged := s.log() == nil // durability off: there is no journal to append to
	journal := func() error {
		if logged {
			return nil
		}
		logged = true
		sc.rec = wal.Record{Type: m.rec, Tenant: t.name}
		switch op {
		case hotEnqueueBatch:
			sc.rec.Items = sc.walItems(sc.rq.items[:applied])
		case hotDeleteMinUpTo:
			sc.rec.Items = sc.walItems(sc.items)
		case hotCounterAddBatch:
			sc.rec.Count, sc.rec.Weight = uint64(applied), weight
		}
		return s.journal(&sc.rec)
	}
	defer func() {
		switch op {
		case hotEnqueueBatch:
			t.opsEnqueued.Add(uint64(applied))
		case hotDeleteMinUpTo:
			t.opsDequeued.Add(uint64(applied))
		case hotCounterAddBatch:
			t.opsCounterAdds.Add(uint64(applied))
			t.counterDeltaSum.Add(weight)
		}
		_ = journal() // the ack path already reported a failure; any other exit has no ack to poison
	}()
	truncated := false
apply:
	for applied < n {
		if op == hotEnqueueBatch && fail.Enabled {
			if err := fail.Inject(fail.SiteDlzdEnqueueItem); err != nil {
				return errorReply(dst, http.StatusInternalServerError,
					fmt.Sprintf("injected abort after %d items", applied))
			}
		}
		if s.overdue(rq, applied) {
			t.deadlineAborts.Add(1)
			if op == hotDeleteMinUpTo {
				// Deadline mid-drain: answer 200 with what was obtained —
				// the elements are already removed, so a partial success is
				// the response that keeps delivered-exactly-once intact.
				truncated = true
				break apply
			}
			return errorReply(dst, http.StatusServiceUnavailable,
				fmt.Sprintf("deadline exceeded after %d %s", applied, m.unit))
		}
		switch op {
		case hotEnqueueBatch:
			// Count before the call: EnqueuePriority's only fault point (the
			// core flush failpoint) fires with the element already in the
			// handle buffer, where the give-back flush will publish it —
			// counting after would leak exactly the elements that ride a
			// faulted auto-publish.
			it := sc.rq.items[applied]
			applied++
			p.mqh.EnqueuePriority(it.Priority, it.Value)
		case hotDeleteMinUpTo:
			it, ok := p.mqh.Dequeue()
			if !ok {
				break apply
			}
			sc.items = append(sc.items, WireItem{Priority: it.Priority, Value: it.Value})
			applied++
		case hotCounterAddBatch:
			d := sc.rq.deltas[applied]
			p.ch.Add(d)
			applied++
			weight += d
		}
	}
	if journal() != nil {
		// The units are applied and the deferred journal call will not retry
		// (logged is set). For a delete-min the elements are already removed
		// and the record was never written, so a restart resurfaces the
		// drained elements. At-most-once delivery still holds, the client
		// just cannot know which; the failure counter surfaces it.
		return errorReply(dst, http.StatusInternalServerError, "journal append failed")
	}
	if postFault() {
		return errorReply(dst, http.StatusInternalServerError, "injected fault before response")
	}
	switch op {
	case hotEnqueueBatch:
		dst = appendEnqueueBatchResponse(dst, EnqueueBatchResponse{Enqueued: applied})
	case hotDeleteMinUpTo:
		dst = appendDeleteMinResponse(dst, DeleteMinResponse{Items: sc.items, Truncated: truncated})
	case hotCounterAddBatch:
		dst = appendCounterAddResponse(dst, CounterAddResponse{Added: applied})
	}
	return dst, reply{status: http.StatusOK}
}

// opCounterRead answers GET /v1/{tenant}/counter/read through the borrowed
// pair's counter handle. A transport drops the query string, the session
// token it once carried included.
func opCounterRead(sc *scratch, rq *request, dst []byte) ([]byte, reply) {
	if string(rq.method) != http.MethodGet {
		return errorReply(dst, http.StatusMethodNotAllowed, "GET required")
	}
	return appendCounterReadResponse(dst, CounterReadResponse{Value: sc.pair.ch.Read()}), reply{status: http.StatusOK}
}

// opSessionClose answers POST /v1/{tenant}/session/close. A session holds
// nothing in the daemon, so there is never anything to close and the body
// is not read; the route stays for the clients that still send it.
func opSessionClose(rq *request, dst []byte) ([]byte, reply) {
	if string(rq.method) != http.MethodPost {
		return errorReply(dst, http.StatusMethodNotAllowed, "POST required")
	}
	return appendSessionCloseResponse(dst, SessionCloseResponse{}), reply{status: http.StatusOK}
}

func (s *Server) opStats(t *tenant, rq *request, dst []byte) ([]byte, reply) {
	if string(rq.method) != http.MethodGet {
		return errorReply(dst, http.StatusMethodNotAllowed, "GET required")
	}
	agg := t.poolStats()
	return appendJSON(dst, StatsResponse{
		Tenant:                t.name,
		QueueLen:              t.mq.Len(),
		CounterExact:          t.mc.Exact(),
		Leases:                agg.pairs,
		BufferedEnqueues:      agg.bufferedEnqueues,
		PrefetchedDequeues:    agg.prefetchedDequeues,
		BufferedCounterOps:    agg.bufferedCounterOps,
		BufferedCounterWeight: agg.bufferedCounterWeight,
		OpsEnqueued:           t.opsEnqueued.Load(),
		OpsDequeued:           t.opsDequeued.Load(),
		CounterDeltaSum:       t.counterDeltaSum.Load(),
		ShedLevel:             int(t.shedLevel.Load()),
		PanicsRecovered:       t.panicsRecovered.Load(),
		RepairFailures:        t.repairFailures.Load(),
	}), reply{status: http.StatusOK}
}

// The http.Handler adapter. cmd/dlzd does not serve through it — Serve owns
// the daemon's connections — but *Server stays an http.Handler over the same
// core, for a caller that wants the daemon behind its own mux and for the
// benchmark's in-process rungs, which call ServeHTTP with a bare
// ResponseWriter.

// httpScratch is the adapter's pooled per-request state: the core's scratch
// plus the request copy and response body the connection loop keeps on the
// connection.
type httpScratch struct {
	scratch
	in, out []byte
}

var scratchPool = sync.Pool{New: func() any { return new(httpScratch) }}

// Shared header values: the adapter sets them by assignment and never
// mutates them.
var (
	jsonContentType = []string{"application/json"}
	textContentType = []string{"text/plain; version=0.0.4; charset=utf-8"}
)

// ServeHTTP answers one request through the transport-free core.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	arrival := time.Now()
	s.requests.Add(1)
	hs := scratchPool.Get().(*httpScratch)
	defer scratchPool.Put(hs)
	in := append(hs.in[:0], r.Method...)
	m := len(in)
	in = append(in, r.URL.Path...)
	p := len(in)
	in, err := appendBody(in, r)
	var out []byte
	var rp reply
	switch {
	case len(in)-p > maxBody:
		out, rp = errorReply(hs.out[:0], http.StatusRequestEntityTooLarge, "request body too large")
	case err != nil:
		out, rp = errorReply(hs.out[:0], http.StatusBadRequest, "bad request body: "+err.Error())
	default:
		rq := request{method: in[:m], path: in[m:p], body: in[p:], arrival: arrival}
		out, rp = s.handle(&hs.scratch, &rq, hs.out[:0])
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if rp.text {
		h["Content-Type"] = textContentType
	}
	if rp.retryAfter > 0 {
		h["Retry-After"] = []string{strconv.Itoa(rp.retryAfter)}
	}
	if rp.status != http.StatusOK {
		w.WriteHeader(rp.status)
	}
	_, _ = w.Write(out) // a failed write is the client's hang-up; there is no one to tell
	hs.in, hs.out = in[:0], out[:0]
	if cap(hs.in) > keepBuf {
		hs.in = nil
	}
	if cap(hs.out) > keepBuf {
		hs.out = nil
	}
	hs.trim()
}

// appendBody appends r's body to dst, stopping one byte past maxBody.
func appendBody(dst []byte, r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return dst, nil
	}
	limit := len(dst) + maxBody + 1
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		room := dst[len(dst):cap(dst)]
		if len(dst)+len(room) > limit {
			room = room[:limit-len(dst)]
		}
		n, err := r.Body.Read(room)
		dst = dst[:len(dst)+n]
		switch {
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst, err
		case len(dst) == limit:
			return dst, nil
		}
	}
}
