// Package fail is the repository's deterministic failpoint layer: named
// injection sites compiled into the stack's fault-sensitive code paths, each
// governed at runtime by a per-site Policy (inject an error, panic, delay, or
// stall until released) with a seeded PRNG schedule and hit counters.
//
// The layer has two builds:
//
//   - Default (no build tag): Enabled is the constant false, every function
//     is a no-op, and every call site of the form
//
//     if fail.Enabled { _ = fail.Inject(fail.SiteX) }
//
//     is removed by the compiler's constant-branch elimination — the
//     failpoints cost literally nothing: no branch, no call, no allocation
//     (the zero-alloc hot-path tests enforce this stays true).
//
//   - `-tags dlzfail`: Enabled is true and Inject consults the site
//     registry. Sites are cheap when disarmed (one lock-free map load plus
//     two atomics) so a chaos build can run the full test suite; armed sites
//     apply their policy under a per-site mutex with a per-site splitmix64
//     stream seeded from SetSeed's global seed and the site name, so a fixed
//     seed reproduces the same probabilistic fire schedule given the same
//     per-site hit order.
//
// The wired sites (taxonomy in DESIGN.md §10):
//
//	pad/lock/acquire   before a blocking SpinLock acquisition (delay/stall
//	                   here piles up waiters — forced contention)
//	pad/lock/hold      just after a blocking acquisition succeeds (delay
//	                   here stretches the critical section, forcing other
//	                   lockers to yield in the slow path)
//	cpq/top/publish    inside a publishing critical section, between the
//	                   top word going mid-update and the republish (delay
//	                   here makes readers see in-flight words)
//	cpq/try/refuse     head of every cpq try-path (an error policy forces
//	                   the refusal outcome: TryAddBatch and
//	                   TryDeleteMinUpTo report the lock contended); the
//	                   MultiQueue's default paths try first — every insert
//	                   publish, Flush and dequeue refill — so refusing all
//	                   of them drives Dequeue, Flush and Close onto their
//	                   blocking last resorts
//	core/deq/reroll    after each d-choice draw in Dequeue/TryDequeue (an
//	                   error policy discards the draw and rerolls — a
//	                   sampler reroll storm)
//	core/flush         head of MQHandle.Flush with the insert buffer intact
//	                   (panic/delay interrupt the batch flush before any
//	                   element publishes; the error outcome is ignored)
//	dlzd/handler/pre   after a request is admitted, before its handler runs
//	dlzd/handler/post  after a mutating handler applied its operations,
//	                   before the response is written
//	dlzd/enqueue/item  between items of an enqueue-batch apply loop (panic
//	                   here is the mid-batch handler fault; an error aborts
//	                   the batch cleanly with the partial count committed)
//	wal/append         head of wal.Log.Append, before any bytes reach the
//	                   segment (an error refuses the append with the journal
//	                   intact — the acked request then fails without a
//	                   record, exercising the journal-unavailable 500 path)
//	wal/fsync          immediately before an fsync of the active segment
//	                   (delay here widens the window where acked records
//	                   sit in the page cache — the SIGKILL-mid-fsync race
//	                   the kill-restart soak targets; the error outcome is
//	                   ignored: write(2) already made the record crash-safe
//	                   against process kill)
//
// Policies injecting panics must only be armed at sites that are panic-safe
// by design — the sites above are all outside spinlock critical sections
// except cpq/top/publish, which therefore only honors delay policies.
package fail

import (
	"errors"
	"time"
)

// Wired site names. Call sites reference these constants so a typo is a
// compile error rather than a silently dead failpoint; the package comment
// documents what each site interrupts.
const (
	SitePadLockAcquire  = "pad/lock/acquire"
	SitePadLockHold     = "pad/lock/hold"
	SiteCPQTopPublish   = "cpq/top/publish"
	SiteCPQTryRefuse    = "cpq/try/refuse"
	SiteCoreReroll      = "core/deq/reroll"
	SiteCoreFlush       = "core/flush"
	SiteDlzdHandlerPre  = "dlzd/handler/pre"
	SiteDlzdHandlerPost = "dlzd/handler/post"
	SiteDlzdEnqueueItem = "dlzd/enqueue/item"
	SiteWALAppend       = "wal/append"
	SiteWALFsync        = "wal/fsync"
)

// Kind selects a policy's fault outcome.
type Kind int

const (
	// KindError makes Inject return ErrInjected. Call sites map the error
	// to their natural refusal outcome: a refused try-lock, a rerolled
	// draw, an aborted batch.
	KindError Kind = iota
	// KindPanic makes Inject panic with an InjectedPanic carrying the site
	// name; recovery paths identify it with IsInjectedPanic.
	KindPanic
	// KindDelay makes Inject sleep for Policy.Delay and return nil.
	KindDelay
	// KindStall makes Inject block until Release(site), Disarm(site) or
	// Reset() — the descheduled-holder / hung-handler fault. Arm it with
	// Count: 1 for the classic stall-once.
	KindStall
)

// Policy configures one armed site. The zero value fires KindError with
// ErrInjected on every hit.
type Policy struct {
	// Kind is the fault outcome.
	Kind Kind
	// Prob is the per-hit fire probability in (0, 1]; 0 means always fire.
	// Decisions are drawn from the site's seeded splitmix64 stream, so a
	// fixed SetSeed reproduces the schedule for a fixed per-site hit order.
	Prob float64
	// Every fires on every Every-th eligible hit (counted from arming);
	// 0 disables the modulus. Combines with Prob (both must pass).
	Every uint64
	// After skips the first After hits observed while armed.
	After uint64
	// Count caps the total fires; 0 means unlimited. A Count-bounded panic
	// policy is what makes retry ladders (a handle pair's give-back flush)
	// converge deterministically.
	Count uint64
	// Delay is the sleep for KindDelay.
	Delay time.Duration
}

// ErrInjected is the default error a KindError policy injects.
var ErrInjected = errors.New("fail: injected fault")

// InjectedPanic is the value a KindPanic policy panics with.
type InjectedPanic struct {
	// Site is the failpoint that fired.
	Site string
}

// Error makes an InjectedPanic printable wherever recovered values are
// formatted as errors.
func (p InjectedPanic) Error() string { return "fail: injected panic at " + p.Site }

// IsInjectedPanic reports whether a recovered value is a failpoint panic,
// returning the originating site. Recovery paths use it to distinguish
// injected chaos from genuine bugs (which they re-report, not absorb).
func IsInjectedPanic(rec any) (site string, ok bool) {
	if p, isInj := rec.(InjectedPanic); isInj {
		return p.Site, true
	}
	return "", false
}
