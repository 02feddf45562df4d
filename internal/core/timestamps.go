package core

import "repro/internal/rng"

// Timestamps is the relaxed timestamping oracle of Section 8: a MultiCounter
// used as a scalable approximate global clock. Sample returns the current
// approximate time; Tick advances the clock by one relaxed increment and
// returns a fresh sample.
//
// The oracle's skew — the spread between values concurrent readers can
// observe — is bounded by the counter's O(m·log m) deviation (Theorem 6.1).
// Consumers that need timestamps to be safely orderable (the TL2 protocol)
// add a slack Δ exceeding the expected skew and write "in the future"; see
// internal/stm.
type Timestamps struct {
	mc *MultiCounter
}

// NewTimestamps returns an oracle over m shards.
func NewTimestamps(m int) *Timestamps {
	return &Timestamps{mc: NewMultiCounter(m)}
}

// Counter exposes the backing MultiCounter (for skew instrumentation).
func (t *Timestamps) Counter() *MultiCounter { return t.mc }

// TSHandle is a per-goroutine handle onto the oracle.
type TSHandle struct {
	mc *MultiCounter
	r  *rng.Xoshiro256
}

// NewHandle returns a handle seeded with seed.
func (t *Timestamps) NewHandle(seed uint64) *TSHandle {
	return &TSHandle{mc: t.mc, r: rng.NewXoshiro256(seed)}
}

// Sample returns the current approximate time.
func (h *TSHandle) Sample() uint64 { return h.mc.Read(h.r) }

// Tick advances the clock by one relaxed increment and returns a fresh
// sample taken after the increment.
func (h *TSHandle) Tick() uint64 {
	h.mc.Increment(h.r)
	return h.mc.Read(h.r)
}

// Advance applies one relaxed increment without sampling. Consumers use it
// to push the clock forward when they are blocked waiting for time to pass
// (the TL2 helping rule; see internal/stm).
func (h *TSHandle) Advance() { h.mc.Increment(h.r) }

// Monotone wraps the handle so samples never decrease: the relaxed counter's
// raw reads bounce within the m·gap band, which is fine for TL2 (a low rv
// only causes extra aborts) but violates the expectations of consumers that
// treat timestamps as a per-thread monotone sequence. Monotone returns the
// running maximum of the raw samples, which stays within the same deviation
// envelope (the maximum of values each within O(m·log m) of the true count
// is itself within O(m·log m)).
type Monotone struct {
	h    *TSHandle
	last uint64
}

// Monotone returns a monotone view of this handle. Like the handle itself it
// is owned by one goroutine.
func (h *TSHandle) Monotone() *Monotone { return &Monotone{h: h} }

// Sample returns a non-decreasing approximate timestamp.
func (m *Monotone) Sample() uint64 {
	if v := m.h.Sample(); v > m.last {
		m.last = v
	}
	return m.last
}

// Tick advances the clock and returns a non-decreasing sample.
func (m *Monotone) Tick() uint64 {
	m.h.Advance()
	return m.Sample()
}
