package dlzd

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/dlz"
	"repro/internal/fail"
)

// tenant is one namespace: a MultiQueue plus a MultiCounter, the session
// leases bound to them, and the tenant-scoped accounting /metrics exports.
type tenant struct {
	name string
	srv  *Server
	mq   *dlz.MultiQueue
	mc   *dlz.MultiCounter

	mu     sync.Mutex // guards leases
	leases map[string]*lease

	// ops is the durability gate (DESIGN.md §12): journaled handlers hold
	// it shared for their whole request, the snapshotter takes it exclusive,
	// freezing the tenant so a capture sits at one consistent cut LSN.
	// Untouched when durability is off.
	ops sync.RWMutex

	// inflight is the backpressure gauge: requests currently inside this
	// tenant's handlers. Bounded by Config.MaxInFlight.
	inflight atomic.Int64

	// Monotonic tenant counters for /metrics.
	retiredRerolls   atomic.Uint64 // sampler rerolls harvested from closed leases
	leasesOpened     atomic.Uint64
	leasesExpired    atomic.Uint64
	rejectedInflight atomic.Uint64
	opsEnqueued      atomic.Uint64
	opsDequeued      atomic.Uint64
	opsCounterAdds   atomic.Uint64
	// counterDeltaSum is the total weight applied through counter/add-batch
	// (defer-committed per request), the value CounterExact must equal at
	// quiescence.
	counterDeltaSum atomic.Uint64
	// Degradation-ladder counters (DESIGN.md §10).
	rejectedBusy    atomic.Uint64 // 503: session lease not lockable in time
	rejectedShed    atomic.Uint64 // 429: adaptive load shedding
	deadlineAborts  atomic.Uint64 // request deadlines hit inside handlers
	panicsRecovered atomic.Uint64 // handler panics absorbed by the envelope
	repairFailures  atomic.Uint64 // lease retirements that exhausted the ladder

	// Adaptive shed state: an EWMA of mutating-request latency (microseconds)
	// drives a level in 0..3; at level L, L out of every 4 mutating requests
	// are shed. All four words are advisory — racy updates only make the
	// ladder react a request early or late, never corrupt state.
	latEWMA   atomic.Uint64
	shedLevel atomic.Int32
	shedShift atomic.Int64 // unix-nano of the last level change
	shedSeq   atomic.Uint64
}

// lease binds one session token to a handle pair (queue + counter). The
// lease's mutex serializes requests carrying the same token, honoring the
// handles' one-goroutine-at-a-time contract while letting the sticky sampler
// state survive across requests. Only that state does: release empties the
// handles' buffers before every answer.
type lease struct {
	t     *tenant
	token string

	mu     sync.Mutex
	mqh    *dlz.MQHandle
	ch     *dlz.Handle
	closed bool

	// lastUsed is the unix-nano stamp of the last completed request, read
	// by the idle-expiry sweep without taking the lease lock.
	lastUsed atomic.Int64
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
		leases: map[string]*lease{},
	}
}

// lease returns the live lease for token, creating one on first use. The
// returned lease is locked; tenantOp's envelope releases it with
// l.release on every exit. A lease that lost a race
// with the expiry sweep is closed by the time its lock is acquired; the
// lookup retries so the caller always gets a live one.
//
// The lock wait is bounded by the request deadline: when the token's
// current holder does not release in time — stalled, descheduled, or serving
// a long drain — ok is false and the caller answers 503 busy instead of
// joining an unbounded convoy on one session token.
func (t *tenant) lease(deadline time.Time, token []byte) (*lease, bool) {
	for {
		t.mu.Lock()
		l, ok := t.leases[string(token)]
		if !ok {
			l = &lease{
				t:     t,
				token: string(token),
				mqh:   t.mq.NewHandle(t.srv.nextSeed()),
				ch:    t.mc.NewHandle(t.srv.nextSeed()),
			}
			l.lastUsed.Store(time.Now().UnixNano())
			t.leases[l.token] = l
			t.leasesOpened.Add(1)
		}
		t.mu.Unlock()
		if !l.lockUntil(deadline) {
			return nil, false
		}
		if !l.closed {
			return l, true
		}
		l.mu.Unlock()
	}
}

// lockUntil acquires the lease lock, giving up at deadline. An uncontended
// lock is one TryLock: the clock is read only while the lock is held by
// another request.
func (l *lease) lockUntil(deadline time.Time) bool {
	for !l.mu.TryLock() {
		left := time.Until(deadline)
		if left <= 0 {
			return false
		}
		time.Sleep(min(left, 200*time.Microsecond))
	}
	return true
}

// closeLocked flushes and retires the lease's handles; callers must hold
// l.mu and have already delinked the lease from the tenant map. The handle
// Close contract does the heavy lifting: buffered inserts and increments are
// published and unconsumed prefetched elements are returned to the shared
// queue, so an abandoned session loses nothing.
//
// Retirement runs as a ladder of retireAttempts tries, each absorbing an
// injected fault and retrying: the core Flush failpoint fires before any
// element publishes and handle Close is a no-op once complete, so a retry
// after an injected panic resumes with all buffered state intact and any
// Count-bounded fault schedule converges well inside the ladder. Reports
// whether the handles retired cleanly; on exhaustion the lease is still
// marked closed (so lookups stop handing it out) and the failure is counted
// in repairFailures.
func (l *lease) closeLocked() bool {
	if l.closed {
		return true
	}
	l.t.retiredRerolls.Add(l.mqh.Rerolls())
	ok := false
	for i := 0; i < retireAttempts; i++ {
		if l.tryRetire() {
			ok = true
			break
		}
	}
	if !ok {
		l.t.repairFailures.Add(1)
	}
	l.closed = true
	return ok
}

// retireAttempts bounds the lease retirement ladder. Chaos schedules arm
// their close-path fault policies with Count well below this, so the ladder
// converges deterministically; a genuine panic is re-raised on first touch.
const retireAttempts = 8

// tryRetire makes one retirement attempt: pass the dlzd/lease/close
// failpoint, then close the two handles. Injected errors report a failed
// attempt; injected panics are absorbed into the same outcome; genuine
// panics propagate.
func (l *lease) tryRetire() (ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, injected := fail.IsInjectedPanic(rec); !injected {
				panic(rec)
			}
			ok = false
		}
	}()
	if fail.Enabled {
		if err := fail.Inject(fail.SiteDlzdLeaseClose); err != nil {
			return false
		}
	}
	l.mqh.Close()
	l.ch.Close()
	return true
}

// tryFlush empties the lease's handles without retiring them — publishes the
// buffered inserts and increments, returns the unconsumed prefetch —
// absorbing an injected fault; callers must hold l.mu.
func (l *lease) tryFlush() (ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, injected := fail.IsInjectedPanic(rec); !injected {
				panic(rec)
			}
			ok = false
		}
	}()
	l.mqh.Flush()
	l.mqh.ReturnPrefetched()
	l.ch.Flush()
	return true
}

// release ends a request's hold on its lease on every exit, before the
// answer is written: it publishes what the request left in the handles, so
// no session waits on an element another was acknowledged for, or — if the
// handles keep faulting — delinks the lease and retires it through the close
// ladder. Either way the lease is stamped as used at now and l.mu released.
func (l *lease) release(now time.Time) {
	defer func() {
		l.lastUsed.Store(now.UnixNano())
		l.mu.Unlock()
	}()
	if l.closed || l.tryFlush() {
		return
	}
	t := l.t
	t.mu.Lock()
	if t.leases[l.token] == l {
		delete(t.leases, l.token)
	}
	t.mu.Unlock()
	l.closeLocked()
}

// closeSession closes the lease for token, reporting whether a live lease
// was found. The explicit-disconnect half of the lease lifecycle.
func (t *tenant) closeSession(token string) bool {
	t.mu.Lock()
	l, ok := t.leases[token]
	if ok {
		delete(t.leases, token)
	}
	t.mu.Unlock()
	if !ok {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock() // deferred so even a genuine close-path panic cannot strand l.mu
	l.closeLocked()
	return true
}

// expireIdle closes every lease whose last use is before cutoff, returning
// the number expired. Leases are delinked under the tenant lock first, then
// closed under their own locks, so a request racing the sweep either
// finishes before the close or retries its lookup and gets a fresh lease.
// A lease holds no element between requests, so the sweep publishes nothing
// and needs no exclusion from a snapshot's capture.
func (t *tenant) expireIdle(cutoff time.Time) int {
	var stale []*lease
	t.mu.Lock()
	for token, l := range t.leases {
		if l.lastUsed.Load() < cutoff.UnixNano() {
			delete(t.leases, token)
			stale = append(stale, l)
		}
	}
	t.mu.Unlock()
	for _, l := range stale {
		if fail.Enabled {
			// Between delink and close: a delay here widens the window in
			// which a request that looked the lease up before the delink
			// races the retirement (the lookup-retry path under test).
			_ = fail.Inject(fail.SiteDlzdJanitor)
		}
		func() {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.closeLocked()
		}()
	}
	t.leasesExpired.Add(uint64(len(stale)))
	return len(stale)
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

// leaseAggregate is what liveLeaseStats sums across a tenant's live leases.
type leaseAggregate struct {
	leases                int
	bufferedEnqueues      int
	prefetchedDequeues    int
	bufferedCounterOps    int
	bufferedCounterWeight uint64
	rerolls               uint64
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

// liveLeaseStats sums the handle-local buffers and sampler rerolls across
// live leases, briefly taking each lease lock (the same order the request
// path uses, so no deadlock). Used by /stats and /metrics. A request empties
// its lease before unlocking it, so the buffer sums are a tripwire: 0.
func (t *tenant) liveLeaseStats() leaseAggregate {
	t.mu.Lock()
	live := make([]*lease, 0, len(t.leases))
	for _, l := range t.leases {
		live = append(live, l)
	}
	t.mu.Unlock()
	agg := leaseAggregate{leases: len(live)}
	for _, l := range live {
		l.mu.Lock()
		if !l.closed {
			agg.bufferedEnqueues += l.mqh.Buffered()
			agg.prefetchedDequeues += l.mqh.Prefetched()
			agg.bufferedCounterOps += l.ch.Buffered()
			agg.bufferedCounterWeight += l.ch.BufferedWeight()
			agg.rerolls += l.mqh.Rerolls()
		}
		l.mu.Unlock()
	}
	return agg
}
