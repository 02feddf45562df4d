package stm

import (
	"repro/internal/core"
	"repro/internal/pad"
)

// Clock is the global version clock abstraction — the single component the
// Section 8 experiment varies. A Clock hands out per-thread handles so that
// relaxed implementations can keep thread-local PRNG state.
type Clock interface {
	// NewHandle returns a handle for one worker goroutine.
	NewHandle(seed uint64) ClockHandle
	// Name labels the clock in experiment output.
	Name() string
}

// ClockHandle is a single thread's view of the global clock.
type ClockHandle interface {
	// Sample returns the clock value a beginning transaction uses as its
	// read version rv.
	Sample() uint64
	// CommitVersion advances the clock and returns the write version wv for
	// a committing transaction that has observed maximum timestamp tmax
	// (rv and every slot version it encountered).
	CommitVersion(tmax uint64) uint64
	// Help advances the clock without committing. The STM calls it when a
	// read aborts on a slot whose version lies in the future (relaxed
	// clocks stamp writes tmax+Δ ahead). Without helping, the protocol has
	// an absorbing livelock: if every in-flight transaction simultaneously
	// reads a future-stamped slot, no one commits, the clock never
	// advances, and no read can ever succeed again. Helping bounds the wait
	// at ~Δ aborts. Exact clocks never stamp the future and implement Help
	// as a no-op.
	Help()
}

// FAAClock is TL2's standard global clock: one fetch-and-add word. It is
// exact — wv values are unique and totally ordered — and it is the
// scalability bottleneck the paper's Figure 1(c)–(e) baseline exhibits.
type FAAClock struct {
	g pad.Uint64
}

// NewFAAClock returns a zeroed exact clock.
func NewFAAClock() *FAAClock { return &FAAClock{} }

// Name implements Clock.
func (c *FAAClock) Name() string { return "tl2-faa" }

// NewHandle implements Clock. FAA handles are stateless views.
func (c *FAAClock) NewHandle(uint64) ClockHandle { return faaHandle{c} }

type faaHandle struct{ c *FAAClock }

// Sample implements ClockHandle.
func (h faaHandle) Sample() uint64 { return h.c.g.Load() }

// CommitVersion implements ClockHandle: the classic GV1 rule wv = FAA(G)+1.
// tmax is ignored — exact clocks dominate every observed timestamp by
// construction.
func (h faaHandle) CommitVersion(uint64) uint64 { return h.c.g.Add(1) }

// Help implements ClockHandle as a no-op: FAA versions never lie in the
// future, so a retry with a fresh rv always observes them.
func (h faaHandle) Help() {}

// MCClock is the paper's relaxed clock: a MultiCounter global clock plus the
// "write in the future" rule. Sample reads the approximate counter;
// CommitVersion advances the counter by one relaxed increment and returns
// tmax + Δ, so every write moves an object's timestamp at least Δ ahead of
// anything its writer observed. Δ must exceed the counter's expected skew
// (O(m·log m), Theorem 6.1) for the protocol to be safe w.h.p. (Section 8).
type MCClock struct {
	mc    *core.MultiCounter
	delta uint64
}

// NewMCClock returns a relaxed clock over m counter shards with slack Δ.
func NewMCClock(m int, delta uint64) *MCClock {
	if delta == 0 {
		panic("stm: NewMCClock needs delta > 0")
	}
	return &MCClock{mc: core.NewMultiCounter(m), delta: delta}
}

// Name implements Clock.
func (c *MCClock) Name() string { return "tl2-multicounter" }

// Delta returns the configured slack Δ.
func (c *MCClock) Delta() uint64 { return c.delta }

// NewHandle implements Clock with a per-operation counter handle: every
// increment publishes at once, so the clock never lags a commit.
func (c *MCClock) NewHandle(seed uint64) ClockHandle {
	return &mcHandle{h: c.mc.NewHandle(seed), delta: c.delta}
}

type mcHandle struct {
	h     *core.Handle
	delta uint64
}

// Sample implements ClockHandle.
func (h *mcHandle) Sample() uint64 { return h.h.Read() }

// CommitVersion implements ClockHandle: advance the relaxed clock, then
// stamp the write Δ beyond everything this transaction has observed.
func (h *mcHandle) CommitVersion(tmax uint64) uint64 {
	h.h.Increment()
	return tmax + h.delta
}

// Help implements ClockHandle by pushing the relaxed clock forward one
// relaxed increment, so readers blocked on future-stamped slots make the
// time they are waiting for actually pass.
func (h *mcHandle) Help() { h.h.Increment() }

// Interface checks.
var (
	_ Clock = (*FAAClock)(nil)
	_ Clock = (*MCClock)(nil)
)
