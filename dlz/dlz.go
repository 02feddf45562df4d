// Package dlz is the public API of this repository: distributionally
// linearizable relaxed concurrent data structures from "Distributionally
// Linearizable Data Structures" (Alistarh, Brown, Kopinsky, Li, Nadiradze,
// SPAA 2018).
//
// Two structures are exported:
//
//   - MultiCounter — a scalable approximate counter (Algorithm 1). Reads are
//     within O(m·log m) of the true increment count, in expectation and
//     w.h.p., provided the shard count m is a large constant multiple of the
//     thread count (Theorem 6.1). MultiCounterConfig{Choices, Stickiness,
//     Batch} enables d-choice sampling and the amortised fast path: handles
//     stick to their sampled shards for Stickiness consecutive increments
//     and publish Batch increments with one shared atomic add. Batched
//     handles must call Handle.Flush before quiescent audits (Exact, Gap,
//     Snapshot); cmd/quality re-measures the deviation of any setting
//     against the envelope.
//   - MultiQueue — a relaxed FIFO/priority queue (Algorithm 2). Dequeues
//     return an element of rank O(m) in expectation and O(m·log m) w.h.p.
//     (Theorem 7.1). Each of its m internal queues is one sequential store —
//     a sorted run plus a small heap of pending inserts — behind a spinlock
//     and a lock-free cached top; there is no per-queue store to choose
//     (DESIGN.md §5). MultiQueueConfig.Choices generalizes the two-choice
//     dequeue to d choices, and Stickiness and Batch enable the
//     sticky/batched fast path: a handle re-uses its random queue choices
//     for Stickiness consecutive operations and moves elements in and out in
//     batches of Batch with one lock acquisition per batch. Every choice is
//     uniform over the m queues, the paper's assumption. Batched handles
//     must call MQHandle.Flush before quiescent audits (Len, cross-handle
//     drains); cmd/quality -queue re-measures the rank-error
//     distribution for any (Choices, Stickiness, Batch) setting against the
//     O(m·log m) envelope.
//
// The paper's Section 8 use of the MultiCounter — a relaxed global clock
// for TL2 — lives in repro/internal/stm, whose MCClock drives one counter
// Handle per transaction thread.
//
// # Usage
//
// All structures are driven through per-goroutine handles carrying private
// PRNG state; create one handle per worker with a distinct seed:
//
//	mc := dlz.NewMultiCounter(64 * runtime.GOMAXPROCS(0))
//	go func(id int) {
//		h := mc.NewHandle(uint64(id) + 1)
//		h.Increment()
//		approx := h.Read()
//		_ = approx
//	}(0)
//
// # Shard count
//
// m is fixed at construction: the MultiCounter takes it as
// NewMultiCounter's argument, the MultiQueue as Topology.InitialM.
//
//	q := dlz.NewMultiQueue(dlz.MultiQueueConfig{Topology: dlz.Topology{InitialM: 64}})
//
// The implementation lives in repro/internal/core; this package pins the
// stable names a downstream user imports.
package dlz

import "repro/internal/core"

// MultiCounter is the relaxed approximate counter of Algorithm 1.
type MultiCounter = core.MultiCounter

// MultiCounterConfig configures NewMultiCounterConfig: shard count m plus
// the Choices/Stickiness/Batch fast-path axes (zero values select the
// paper's per-op two-choice defaults).
type MultiCounterConfig = core.MultiCounterConfig

// Handle is a per-goroutine view of a MultiCounter. In batched mode it owns
// the increment buffer; call Handle.Flush at quiescence.
type Handle = core.Handle

// MultiQueue is the relaxed queue of Algorithm 2.
type MultiQueue = core.MultiQueue

// MQHandle is a per-goroutine view of a MultiQueue.
type MQHandle = core.MQHandle

// MultiQueueConfig configures NewMultiQueue.
type MultiQueueConfig = core.MultiQueueConfig

// Topology carries the shard count m of both structures, fixed at
// construction. Embedded in MultiQueueConfig and MultiCounterConfig.
type Topology = core.Topology

// MQStats aggregates a MultiQueue's event counters — the snapshot dlzd
// exports per tenant.
type MQStats = core.MQStats

// NewMultiCounter returns a MultiCounter over m atomic counters with the
// paper's per-op two-choice defaults. For the paper's guarantees m should be
// a large constant multiple of the number of concurrent threads; in practice
// m ≈ 4–8× threads already balances well (Figure 1a).
func NewMultiCounter(m int) *MultiCounter { return core.NewMultiCounter(m) }

// NewMultiCounterConfig returns a MultiCounter with the full configuration,
// including the d-choice and sticky/batched fast-path axes.
func NewMultiCounterConfig(cfg MultiCounterConfig) *MultiCounter {
	return core.NewMultiCounterConfig(cfg)
}

// NewMultiQueue returns a MultiQueue with the given configuration.
func NewMultiQueue(cfg MultiQueueConfig) *MultiQueue { return core.NewMultiQueue(cfg) }
