package main

import (
	"strconv"

	"repro/dlzd"
	"repro/internal/rng"
)

// The wire workloads' load shape: the dlzd-load Zipf mix held at a fixed
// batch, so that every request is the same amount of element work and a
// latency percentile compares like with like.
const (
	numTenants  = 4
	tenantTheta = 0.9 // Zipf skew of tenant choice: tenant 0 takes about half
	prioSpace   = 1 << 20
	prioTheta   = 0.8 // Zipf skew of priorities: hot keys contend on the same minima
	wireBatch   = 8   // items, max or deltas per request
	// prefillPerTenant keeps every delete-min-up-to full: the mix is
	// stationary, so a tenant's length does a random walk of +-wireBatch per
	// queue request, and 2^15 is more than five standard deviations of that
	// walk at the longest run the benchmark allows (60 s). A short answer
	// would be counted as failed operations, not pass unseen.
	prefillPerTenant = 1 << 15
	prefillSession   = "prefill"
)

type opKind uint8

const (
	opEnqueue opKind = iota
	opDeleteMin
	opCounterAdd
	numOps
)

// opPath is the /v1/{tenant}/ suffix of each operation.
var opPath = [numOps]string{"enqueue-batch", "delete-min-up-to", "counter/add-batch"}

// request is one pre-generated wire request. It holds offsets, not slices,
// so that a stream of a million requests is a few pointer-free arrays the
// generator's garbage collector never has to walk during a timed run.
type request struct {
	id      uint32 // unique over the stream; the id its spans share
	tenant  uint8
	op      opKind
	n       uint16 // element operations: items, max or deltas
	body    uint32 // offset of the pre-encoded JSON body in stream.bodies
	bodyLen uint32
	first   uint32 // first item (enqueue) or delta (counter add) in the stream's arrays
}

// stream is everything the program under test will be sent, generated from
// the seed before any timing starts.
type stream struct {
	batch   int
	prefill []request   // one session's enqueue-batch requests filling every tenant
	callers [][]request // the closed-loop callers' requests, in issue order
	bodies  []byte
	items   []dlzd.WireItem
	deltas  []uint64
	// owner[v] is 1 + the tenant that value v is enqueued to, 0 for a value
	// the stream never enqueues. Values are unique, so a dequeued value names
	// the one enqueue that produced it.
	owner []uint8
}

func tenantName(t int) string    { return "t" + strconv.Itoa(t) }
func callerSession(c int) string { return "c" + strconv.Itoa(c) }

// genStream draws perCaller requests for each of callers closed-loop clients:
// tenant by Zipf, operation by the stationary 3/8 enqueue-batch : 3/8
// delete-min-up-to : 2/8 counter/add-batch mix, batch elements per request,
// priorities by Zipf, every enqueued Value a fresh id. The same arguments
// give the same stream.
func genStream(seed uint64, callers, perCaller, batch int) *stream {
	s := &stream{batch: batch, callers: make([][]request, callers)}
	nextValue := uint64(1)
	nextID := uint32(0)
	enqueue := func(r *rng.Xoshiro256, prio *rng.Zipf, session string, tenant, n int) request {
		req := request{id: nextID, tenant: uint8(tenant), op: opEnqueue, n: uint16(n), first: uint32(len(s.items))}
		nextID++
		for i := 0; i < n; i++ {
			s.items = append(s.items, dlzd.WireItem{Priority: uint64(prio.Next()), Value: nextValue})
			s.owner = append(s.owner, uint8(tenant)+1)
			nextValue++
		}
		req.body = uint32(len(s.bodies))
		s.bodies = appendEnqueueBody(s.bodies, session, s.items[req.first:])
		req.bodyLen = uint32(len(s.bodies)) - req.body
		return req
	}
	s.owner = append(s.owner, 0) // value 0 is never issued

	r := rng.NewXoshiro256(seed ^ 0x9e3779b97f4a7c15)
	prio := rng.NewZipf(r, prioSpace, prioTheta)
	for t := 0; t < numTenants; t++ {
		for left := prefillPerTenant; left > 0; {
			n := left
			if n > dlzd.MaxWireBatch {
				n = dlzd.MaxWireBatch
			}
			s.prefill = append(s.prefill, enqueue(r, prio, prefillSession, t, n))
			left -= n
		}
	}
	for c := range s.callers {
		r := rng.NewXoshiro256(seed + uint64(c+1)*0xbf58476d1ce4e5b9)
		tenant := rng.NewZipf(r, numTenants, tenantTheta)
		prio := rng.NewZipf(r, prioSpace, prioTheta)
		session := callerSession(c)
		reqs := make([]request, 0, perCaller)
		for i := 0; i < perCaller; i++ {
			t := tenant.Next()
			switch k := r.Intn(8); {
			case k < 3:
				reqs = append(reqs, enqueue(r, prio, session, t, batch))
			case k < 6:
				req := request{id: nextID, tenant: uint8(t), op: opDeleteMin, n: uint16(batch), body: uint32(len(s.bodies))}
				s.bodies = appendDeleteMinBody(s.bodies, session, batch)
				req.bodyLen = uint32(len(s.bodies)) - req.body
				reqs = append(reqs, req)
				nextID++
			default:
				req := request{id: nextID, tenant: uint8(t), op: opCounterAdd, n: uint16(batch), first: uint32(len(s.deltas))}
				for j := 0; j < batch; j++ {
					s.deltas = append(s.deltas, 1+r.Uint64n(100))
				}
				req.body = uint32(len(s.bodies))
				s.bodies = appendCounterAddBody(s.bodies, session, s.deltas[req.first:])
				req.bodyLen = uint32(len(s.bodies)) - req.body
				reqs = append(reqs, req)
				nextID++
			}
		}
		s.callers[c] = reqs
	}
	return s
}

func (s *stream) bodyOf(r *request) []byte { return s.bodies[r.body : r.body+r.bodyLen] }

func (s *stream) itemsOf(r *request) []dlzd.WireItem {
	return s.items[r.first : r.first+uint32(r.n)]
}

func (s *stream) deltasOf(r *request) []uint64 {
	return s.deltas[r.first : r.first+uint32(r.n)]
}

// requests is the number of requests the callers issue (prefill excluded).
func (s *stream) requests() int {
	n := 0
	for _, reqs := range s.callers {
		n += len(reqs)
	}
	return n
}

// The three body encoders write exactly what encoding/json writes for the
// wire.go request types (a test compares them), without its reflection.

func appendEnqueueBody(dst []byte, session string, items []dlzd.WireItem) []byte {
	dst = append(dst, `{"session":"`...)
	dst = append(dst, session...)
	dst = append(dst, `","items":[`...)
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"priority":`...)
		dst = strconv.AppendUint(dst, it.Priority, 10)
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendUint(dst, it.Value, 10)
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}

func appendDeleteMinBody(dst []byte, session string, max int) []byte {
	dst = append(dst, `{"session":"`...)
	dst = append(dst, session...)
	dst = append(dst, `","max":`...)
	dst = strconv.AppendInt(dst, int64(max), 10)
	return append(dst, '}')
}

func appendCounterAddBody(dst []byte, session string, deltas []uint64) []byte {
	dst = append(dst, `{"session":"`...)
	dst = append(dst, session...)
	dst = append(dst, `","deltas":[`...)
	for i, d := range deltas {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, d, 10)
	}
	return append(dst, `]}`...)
}
