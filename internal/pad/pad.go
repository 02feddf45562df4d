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

// Add atomically adds delta and returns the new value.
func (p *Uint64) Add(delta uint64) uint64 { return p.v.Add(delta) }

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

// LoadWord returns the raw word (payload and sequence packed) with one atomic
// load, for callers that decode the fields themselves.
func (s *Seq64) LoadWord() uint64 { return s.w.Load() }

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

// SpinLock is a test-and-test-and-set spinlock that yields between probes
// while it waits. It is not padded: the holder places it in the block
// its critical section writes anyway. MultiQueue priority queues use TryLock
// so that a dequeuer can simply re-draw its random choices instead of waiting
// behind a contended queue — the "lock-free usage of locks" idiom from the
// MultiQueue literature.
type SpinLock struct {
	state atomic.Uint32
	// contended counts Lock acquisitions that missed the TryLock fast path
	// and entered the slow path — the lock-pressure signal
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

// Lock acquires the lock: an uncontended acquire is a single CAS (the
// TryLock fast path, kept apart so it inlines); under contention the slow
// path spins read-only on the state word — no CAS traffic while the lock is
// held, so the holder's release write is not fighting invalidations — and
// calls runtime.Gosched between probes, so a descheduled holder gets the CPU
// back on oversubscribed runs. The shard paths try-lock and redraw, and
// come here only as a last resort (DESIGN.md §2, "Contention").
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
// section so the other waiters keep yielding behind it. Only
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
	for !l.TryLock() {
		runtime.Gosched()
	}
}

// Unlock releases the lock. Calling Unlock on an unlocked SpinLock is a
// programming error and panics.
func (l *SpinLock) Unlock() {
	if l.state.Swap(0) != 1 {
		panic("pad: Unlock of unlocked SpinLock")
	}
}

// Contended returns the number of Lock calls that found the lock held and
// entered the slow path since creation. TryLock refusals are
// not counted — callers that re-draw on refusal already account for those
// outcomes themselves (Sampler.Reroll). Monotonic; safe to read concurrently.
func (l *SpinLock) Contended() uint64 { return l.contended.Load() }
