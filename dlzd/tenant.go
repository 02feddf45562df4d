package dlzd

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/dlz"
	"repro/internal/fail"
)

// tenant is one namespace: a MultiQueue plus a MultiCounter, the pool of
// handle pairs its requests borrow, and the tenant-scoped accounting /metrics
// exports.
type tenant struct {
	name string
	srv  *Server
	mq   *dlz.MultiQueue
	mc   *dlz.MultiCounter

	mu    sync.Mutex // guards idle and pairs
	idle  []*pair    // flushed pairs, the most recently returned last
	pairs int        // pairs the tenant owns: idle plus borrowed

	// ops is the durability gate (DESIGN.md §12): journaled handlers hold
	// it shared for their whole request, the snapshotter takes it exclusive,
	// freezing the tenant so a capture sits at one consistent cut LSN.
	// Untouched when durability is off.
	ops sync.RWMutex

	// inflight is the backpressure gauge: requests currently inside this
	// tenant's handlers. Bounded by Config.MaxInFlight.
	inflight atomic.Int64

	// Monotonic tenant counters for /metrics.
	rerolls          atomic.Uint64 // sampler rerolls harvested from returned pairs
	rejectedInflight atomic.Uint64
	opsEnqueued      atomic.Uint64
	opsDequeued      atomic.Uint64
	opsCounterAdds   atomic.Uint64
	// counterDeltaSum is the total weight applied through counter/add-batch
	// (defer-committed per request), the value CounterExact must equal at
	// quiescence.
	counterDeltaSum atomic.Uint64
	// Degradation-ladder counters (DESIGN.md §10).
	rejectedShed    atomic.Uint64 // 429: adaptive load shedding
	deadlineAborts  atomic.Uint64 // request deadlines hit inside handlers
	panicsRecovered atomic.Uint64 // handler panics absorbed by the envelope
	repairFailures  atomic.Uint64 // returned pairs whose flush exhausted the ladder

	// Adaptive shed state: an EWMA of mutating-request latency (microseconds)
	// drives a level in 0..3; at level L, L out of every 4 mutating requests
	// are shed. All four words are advisory — racy updates only make the
	// ladder react a request early or late, never corrupt state.
	latEWMA   atomic.Uint64
	shedLevel atomic.Int32
	shedShift atomic.Int64 // unix-nano of the last level change
	shedSeq   atomic.Uint64
}

// pair is one handle pair (queue + counter), the paper's per-thread handle:
// one request at a time borrows it, which honors the handles'
// one-goroutine-at-a-time contract. Its sticky sampler state survives from
// one borrower to the next; its buffers do not, because giveBack empties
// them before the pair goes back to the pool.
type pair struct {
	mqh     *dlz.MQHandle
	ch      *dlz.Handle
	rerolls uint64 // mqh.Rerolls() at the last give-back
}

func newTenant(name string, srv *Server) *tenant {
	cfg := srv.cfg
	topo := dlz.Topology{InitialM: cfg.Queues}
	return &tenant{
		name: name,
		srv:  srv,
		mq: dlz.NewMultiQueue(dlz.MultiQueueConfig{
			Topology:   topo,
			Choices:    cfg.Choices,
			Stickiness: cfg.Stickiness,
			Batch:      cfg.Batch,
		}),
		mc: dlz.NewMultiCounterConfig(dlz.MultiCounterConfig{
			Topology:   topo,
			Choices:    cfg.Choices,
			Stickiness: cfg.Stickiness,
			Batch:      cfg.Batch,
		}),
	}
}

// borrow takes the most recently returned pair, or mints one when every pair
// the tenant owns is out, so the pool never holds more pairs than requests
// ever ran in the tenant at once. tenantOp's envelope gives it back with
// giveBack on every exit.
func (t *tenant) borrow() *pair {
	t.mu.Lock()
	if n := len(t.idle); n > 0 {
		p := t.idle[n-1]
		t.idle[n-1] = nil
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return p
	}
	t.pairs++
	t.mu.Unlock()
	return &pair{mqh: t.mq.NewHandle(t.srv.nextSeed()), ch: t.mc.NewHandle(t.srv.nextSeed())}
}

// retireAttempts bounds the give-back flush ladder. Chaos schedules arm
// their flush-path fault policies with Count well below this, so the ladder
// converges deterministically; a genuine panic is re-raised on first touch.
const retireAttempts = 8

// giveBack ends a request's hold on p, before the answer is written: it
// publishes what the request left in the handles — buffered inserts and
// increments, the unconsumed prefetch — so no session waits on an element
// another was acknowledged for, and adds the pair's new sampler rerolls to
// the tenant's. The flush is retried up to retireAttempts times: the core
// Flush failpoint fires before any element publishes, so a retry resumes
// with the buffers intact. A pair whose flush never completes (counted in
// repairFailures), or whose request ended in a genuine panic (keep false),
// is dropped instead of pooled.
func (t *tenant) giveBack(p *pair, keep bool) {
	ok := false
	defer func() { // deferred so even a genuine flush panic leaves the count right
		t.mu.Lock()
		if ok && keep {
			t.idle = append(t.idle, p)
		} else {
			t.pairs--
		}
		t.mu.Unlock()
	}()
	for i := 0; i < retireAttempts && !ok; i++ {
		ok = p.tryFlush()
	}
	if !ok {
		t.repairFailures.Add(1)
	}
	r := p.mqh.Rerolls()
	t.rerolls.Add(r - p.rerolls)
	p.rerolls = r
}

// tryFlush makes one attempt at emptying the pair's handles, absorbing an
// injected fault; a genuine panic propagates.
func (p *pair) tryFlush() (ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, injected := fail.IsInjectedPanic(rec); !injected {
				panic(rec)
			}
			ok = false
		}
	}()
	p.mqh.Flush()
	p.mqh.ReturnPrefetched()
	p.ch.Flush()
	return true
}

// acquire admits one request under the tenant's in-flight budget, reporting
// false (and counting the rejection) on overflow. Release with release.
func (t *tenant) acquire() bool {
	max := t.srv.cfg.MaxInFlight
	if max <= 0 {
		t.inflight.Add(1)
		return true
	}
	if t.inflight.Add(1) > int64(max) {
		t.inflight.Add(-1)
		t.rejectedInflight.Add(1)
		return false
	}
	return true
}

func (t *tenant) release() { t.inflight.Add(-1) }

// poolAggregate is what poolStats reads of a tenant's pool.
type poolAggregate struct {
	pairs                 int
	bufferedEnqueues      int
	prefetchedDequeues    int
	bufferedCounterOps    int
	bufferedCounterWeight uint64
}

// shed is the adaptive-admission decision for one mutating request: at shed
// level L (0..3), L out of every 4 are rejected, and the Retry-After hint
// doubles with each level (1s, 2s, 4s) so shed traffic spreads out instead
// of hammering a tenant that is already past its latency target. Level 0
// costs one atomic load.
func (t *tenant) shed() (retryAfterSeconds int, shed bool) {
	lvl := t.shedLevel.Load()
	if lvl <= 0 {
		return 0, false
	}
	if t.shedSeq.Add(1)%4 < uint64(lvl) {
		t.rejectedShed.Add(1)
		return 1 << (lvl - 1), true
	}
	return 0, false
}

// observeLatency feeds one mutating request's time from arrival to answer,
// d, answered at now, into the shed EWMA (α = 1/8) and moves the shed
// level: up one step while the EWMA exceeds shedTarget, down one step once
// it falls below half the target, never more often than shedHold. The CAS
// on shedShift makes concurrent observers agree on at most one step per
// dwell; everything else tolerates racy updates (a lost EWMA store skews the
// estimate by one sample).
func (t *tenant) observeLatency(d time.Duration, now time.Time) {
	us := uint64(d.Microseconds())
	if us == 0 {
		us = 1
	}
	old := t.latEWMA.Load()
	ewma := us
	if old != 0 {
		ewma = old - old/8 + us/8
	}
	t.latEWMA.Store(ewma)

	at := now.UnixNano()
	last := t.shedShift.Load()
	if at-last < int64(t.srv.ladder.shedHold) {
		return
	}
	lvl := t.shedLevel.Load()
	tgt := uint64(t.srv.ladder.shedTarget.Microseconds())
	switch {
	case ewma > tgt && lvl < 3:
		if t.shedShift.CompareAndSwap(last, at) {
			t.shedLevel.Store(lvl + 1)
		}
	case ewma < tgt/2 && lvl > 0:
		if t.shedShift.CompareAndSwap(last, at) {
			t.shedLevel.Store(lvl - 1)
		}
	}
}

// poolStats counts the tenant's pairs and sums the handle-local buffers of
// its idle ones under the pool lock. Used by /stats and /metrics. A pair is
// emptied before it is pooled, so the buffer sums are a tripwire: 0.
func (t *tenant) poolStats() poolAggregate {
	t.mu.Lock()
	defer t.mu.Unlock()
	agg := poolAggregate{pairs: t.pairs}
	for _, p := range t.idle {
		agg.bufferedEnqueues += p.mqh.Buffered()
		agg.prefetchedDequeues += p.mqh.Prefetched()
		agg.bufferedCounterOps += p.ch.Buffered()
		agg.bufferedCounterWeight += p.ch.BufferedWeight()
	}
	return agg
}
