// Package core implements the paper's primary contributions: the
// MultiCounter relaxed approximate counter (Algorithm 1) and the MultiQueue
// relaxed priority/FIFO queue (Algorithm 2). Section 8's TL2 experiment
// uses the MultiCounter as its global clock through per-operation Handles
// (internal/stm).
//
// Both structures follow the same recipe, which Section 6 proves sound under
// an oblivious adversary when the number of shards m is a sufficiently large
// constant multiple of the thread count n:
//
//   - state is spread over m independent linearizable shards (atomic
//     counters; lock-protected priority queues);
//   - updates that must be "small" (increments; dequeues) sample d shards
//     (the paper's default d = 2) and operate on the apparently better one —
//     the d-choice rule, implemented once as the shared Sampler, through
//     which every counter update and every dequeue draws;
//   - the structure is distributionally linearizable (Section 5) to a
//     sequential relaxed process whose per-operation cost is O(m·log m)
//     w.h.p.: counter reads deviate by at most O(m·log m) from the true
//     increment count (Theorem 6.1), dequeues return an element of rank
//     O(m) in expectation and O(m·log m) w.h.p. (Theorem 7.1).
//
// Random choices come from caller-owned generators: every worker obtains a
// Handle (one per goroutine) carrying its own rng stream, so the hot paths
// share no mutable state beyond the shards themselves.
//
// Beyond the paper, both structures support an amortised sticky/batched
// fast path configured through MultiCounterConfig and MultiQueueConfig
// (Choices, Stickiness, Batch): handles re-use their sampled candidates for
// a window of operations and move whole batches per shared synchronization
// step. The quality cost of any setting is measured — not assumed — by
// repro/internal/quality and the cmd/quality driver; see DESIGN.md §2 for
// the handle lifecycle and the measured trade-offs.
//
// The exported facade for downstream users is the root package repro/dlz,
// which re-exports these types with a stable API.
package core
