// Package pad provides cache-line padded synchronization cells.
//
// Every shared mutable word in this repository's hot paths lives in one of
// these types. The MultiCounter's whole point is to spread contention across
// m independent memory locations; if those locations shared cache lines, the
// hardware would re-serialize them through coherence traffic and the
// experiment would measure false sharing instead of the algorithm. The
// padding size is 128 bytes: one 64-byte line plus a second line to defeat
// the adjacent-line spatial prefetcher on Intel parts like the paper's
// E7-4830 v3.
//
// Uint64 pads itself. SpinLock and Seq64 are
// bare words: their one user, a cpq.Queue shard, holds both beside the rest
// of its critical-section state in one CacheLine block and pads that block
// as a whole (DESIGN.md §5, "Shard layout").
package pad

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/fail"
)

// CacheLine is the padding granularity in bytes.
const CacheLine = 128

// Uint64 is a cache-line padded atomic uint64. The zero value is 0.
type Uint64 struct {
	v atomic.Uint64
	_ [CacheLine - 8]byte
}

// Load atomically reads the value.
func (p *Uint64) Load() uint64 { return p.v.Load() }

// Store atomically writes the value.
func (p *Uint64) Store(x uint64) { p.v.Store(x) }

// Add atomically adds delta and returns the new value.
func (p *Uint64) Add(delta uint64) uint64 { return p.v.Add(delta) }

// Swap atomically installs x and returns the previous value.
func (p *Uint64) Swap(x uint64) uint64 { return p.v.Swap(x) }

// CompareAndSwap executes the CAS and reports whether it succeeded.
func (p *Uint64) CompareAndSwap(old, new uint64) bool { return p.v.CompareAndSwap(old, new) }

// SeqBits is the width of the Seq64 sequence field. The remaining
// 64 − SeqBits high bits carry the payload.
const SeqBits = 15

// seqMask selects the Seq64 sequence field.
const seqMask = 1<<SeqBits - 1

// Seq64 is a single-word seqlock: one atomic uint64 whose high 64−SeqBits
// bits carry a published payload and whose low SeqBits bits carry a
// publication sequence number. An odd sequence marks the payload as
// mid-update — the writer has entered a mutating section and will republish —
// while the payload bits retain the last published (stale but previously
// true) value, so readers always get something usable from a single load.
//
// The writer side is not itself synchronized: exactly one writer at a time
// may call Begin/Publish, which in this repository means the holder of the
// cell's guarding lock. Readers need no synchronization at all — Load is one
// atomic load, and the sequence parity tells them whether the payload is
// stable or in-flight. This is the seqlock discipline collapsed into a single
// word: because payload and sequence share one atomic, readers never need the
// classic read-seq/read-data/re-read-seq dance, and a torn read is
// impossible.
//
// The writer side reads the word back with a plain atomic load rather than
// keeping a private copy: the word is meant to share its line with the
// guarding lock, whose acquiring CAS has already pulled that line in
// exclusively, so the load costs no coherence traffic.
//
// The zero value is stable (sequence 0) with payload 0.
type Seq64 struct {
	w atomic.Uint64
}

// Load returns the current payload and whether the word is mid-update (the
// sequence is odd). A mid-update payload is the last published value, not
// garbage.
func (s *Seq64) Load() (payload uint64, inflight bool) {
	w := s.w.Load()
	return w >> SeqBits, w&1 == 1
}

// LoadWord returns the raw word (payload and sequence packed) with one atomic
// load, for callers that decode the fields themselves.
func (s *Seq64) LoadWord() uint64 { return s.w.Load() }

// Seq returns the current sequence number. It advances by exactly 2 per
// Begin/Publish pair (modulo 2^SeqBits), so tests can use it as a mutation
// counter; an odd value means a writer is mid-update.
func (s *Seq64) Seq() uint64 { return s.w.Load() & seqMask }

// Init stores payload with a stable (even, zeroed) sequence. Call before the
// cell is shared; it is not safe against concurrent Begin/Publish.
func (s *Seq64) Init(payload uint64) { s.w.Store(payload << SeqBits) }

// Begin marks the word mid-update: the sequence becomes odd while the payload
// bits keep the last published value. Only the exclusive writer (the guarding
// lock's holder) may call it, at the top of a mutating section; calling Begin
// twice without an intervening Publish leaves the word mid-update and is
// harmless.
func (s *Seq64) Begin() { s.w.Store(s.w.Load() | 1) }

// Publish installs a new payload and returns the word to stable: the
// sequence becomes the next even value, whether or not Begin was called.
// Only the exclusive writer may call it, at the end of a mutating section
// before releasing the guarding lock.
func (s *Seq64) Publish(payload uint64) {
	seq := ((s.w.Load() | 1) + 1) & seqMask
	s.w.Store(payload<<SeqBits | seq)
}

// SpinLock is a test-and-test-and-set spinlock with adaptive spin-then-yield
// backoff (see Backoff). It is not padded: the holder places it in the block
// its critical section writes anyway. MultiQueue priority queues use TryLock
// so that a dequeuer can simply re-draw its random choices instead of waiting
// behind a contended queue — the "lock-free usage of locks" idiom from the
// MultiQueue literature.
type SpinLock struct {
	state atomic.Uint32
	// contended counts Lock acquisitions that missed the TryLock fast path
	// and entered the backoff slow path — the spin-backoff pressure signal
	// monitoring surfaces (dlzd's /metrics). It sits beside the state word,
	// so the slow-path increment touches no extra cache line, and the
	// uncontended fast path never writes it.
	contended atomic.Uint64
}

// TryLock attempts to acquire the lock without blocking and reports whether
// it succeeded.
func (l *SpinLock) TryLock() bool {
	return l.state.Load() == 0 && l.state.CompareAndSwap(0, 1)
}

// Lock acquires the lock with adaptive spin-then-yield backoff: an
// uncontended acquire is a single CAS (the TryLock fast path, kept apart so
// it inlines); under contention the slow path spins read-only on the state
// word — no CAS traffic while the lock is held, so the holder's release
// write is not fighting invalidations — pausing between probes with
// Backoff's bounded exponential schedule and escalating to runtime.Gosched
// once the pause budget saturates (essential on oversubscribed runs, where
// the lock holder may be descheduled).
func (l *SpinLock) Lock() {
	if l.TryLock() {
		return
	}
	if fail.Enabled {
		l.lockSlowChaos()
		return
	}
	l.lockSlow()
}

// lockSlowChaos brackets the contended path with the pad failpoints: a delay
// or stall at pad/lock/acquire piles waiters up behind the lock (forced
// contention), one at pad/lock/hold stretches the just-entered critical
// section so the other waiters escalate through their backoff schedule. Only
// compiled in under the dlzfail tag; the fast TryLock path above is never
// perturbed, so armed policies bite exactly the acquisitions that were
// already contended.
func (l *SpinLock) lockSlowChaos() {
	_ = fail.Inject(fail.SitePadLockAcquire)
	l.lockSlow()
	_ = fail.Inject(fail.SitePadLockHold)
}

func (l *SpinLock) lockSlow() {
	l.contended.Add(1)
	var b Backoff
	for {
		for l.state.Load() != 0 {
			b.Pause()
		}
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		// Lost the race to another waiter: back off before re-probing so
		// the winner's critical section isn't slowed by our coherence
		// traffic.
		b.Pause()
	}
}

// Unlock releases the lock. Calling Unlock on an unlocked SpinLock is a
// programming error and panics.
func (l *SpinLock) Unlock() {
	if l.state.Swap(0) != 1 {
		panic("pad: Unlock of unlocked SpinLock")
	}
}

// Locked reports whether the lock is currently held (racy; for stats only).
func (l *SpinLock) Locked() bool { return l.state.Load() != 0 }

// Contended returns the number of Lock calls that found the lock held and
// entered the spin-backoff slow path since creation. TryLock refusals are
// not counted — callers that re-draw on refusal already account for those
// outcomes themselves (Sampler.Reroll). Monotonic; safe to read concurrently.
func (l *SpinLock) Contended() uint64 { return l.contended.Load() }

// Backoff is an adaptive spin-then-yield pause schedule for contended
// retry loops: successive Pause calls double a bounded busy-wait (starting
// at backoffMinSpins hint iterations, capped at backoffMaxSpins so one
// waiter can never burn unbounded cycles between probes), then escalate to
// runtime.Gosched so a descheduled lock holder gets the CPU back. The zero
// value is ready to use; a Backoff is single-goroutine state and is not
// safe for concurrent use.
type Backoff struct {
	spins int
}

const (
	// backoffMinSpins is the first pause's busy-wait length — short enough
	// that a briefly-held lock is re-probed within tens of nanoseconds.
	backoffMinSpins = 4
	// backoffMaxSpins bounds the exponential growth (the "bounded" in
	// bounded exponential pause); past it every Pause yields instead.
	backoffMaxSpins = 1 << 8
)

// Pause blocks the calling goroutine for the next step of the schedule:
// a bounded exponentially growing busy-wait while cheap, a scheduler yield
// once saturated.
func (b *Backoff) Pause() {
	if b.spins < backoffMaxSpins {
		if b.spins == 0 {
			b.spins = backoffMinSpins
		} else {
			b.spins <<= 1
		}
		for i := 0; i < b.spins; i++ {
			spinHint()
		}
		return
	}
	runtime.Gosched()
}

// Reset rewinds the schedule to the initial short pause. Retry loops that
// made progress (acquired the lock, drained an element) call it before
// re-entering a wait, so one long contention episode does not condemn the
// next to starting at the yield stage.
func (b *Backoff) Reset() { b.spins = 0 }

// Yielding reports whether the schedule has saturated its spin budget and
// is now yielding to the scheduler on every Pause.
func (b *Backoff) Yielding() bool { return b.spins >= backoffMaxSpins }

// spinHint burns a few cycles without touching memory. Go exposes no PAUSE
// intrinsic; an empty loop iteration plus the call overhead approximates it
// closely enough for backoff purposes.
//
//go:noinline
func spinHint() {}

// RetryBackoff is the sleep-scale sibling of Backoff for request-level retry
// loops (HTTP 429/503 handling in dlzd clients): each Next returns a
// full-jitter exponential delay — uniform in [0, min(Cap, Base·2^attempt)) —
// so a fleet of clients retrying after the same shed event does not
// resynchronize into the thundering herd that caused the shedding. The floor
// argument carries the server's Retry-After hint and is honored as a lower
// bound on the returned delay.
//
// The jitter stream is a private splitmix64 seeded by NewRetryBackoff, so
// load generators get reproducible schedules from a fixed seed. Like Backoff,
// a RetryBackoff is single-goroutine state.
type RetryBackoff struct {
	// Base is the first retry's maximum delay; 0 means 5ms.
	Base time.Duration
	// Cap bounds the exponential growth; 0 means 1s.
	Cap time.Duration

	attempt int
	rng     uint64
}

// NewRetryBackoff returns a RetryBackoff with the given delay bounds and
// jitter seed (0 is a valid seed).
func NewRetryBackoff(base, cap time.Duration, seed uint64) *RetryBackoff {
	return &RetryBackoff{Base: base, Cap: cap, rng: seed}
}

// Next advances the schedule and returns the next delay: a jittered draw from
// the current exponential window, raised to floor if the draw came in under
// it. Pass the server's Retry-After as floor (0 when absent).
func (r *RetryBackoff) Next(floor time.Duration) time.Duration {
	base, max := r.Base, r.Cap
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	ceil := max
	// base<<attempt with shift-overflow protection: past ~30 doublings the
	// window is certainly saturated.
	if r.attempt < 30 {
		if w := base << uint(r.attempt); w > 0 && w < max {
			ceil = w
		}
		r.attempt++
	}
	// splitmix64 step for the jitter draw.
	r.rng += 0x9E3779B97F4A7C15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	d := time.Duration(z % uint64(ceil))
	if d < floor {
		d = floor
	}
	return d
}

// Reset rewinds the exponential window to Base after a successful request,
// keeping the jitter stream position.
func (r *RetryBackoff) Reset() { r.attempt = 0 }

// Attempt returns the number of Next calls since creation or the last Reset.
func (r *RetryBackoff) Attempt() int { return r.attempt }
