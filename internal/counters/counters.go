// Package counters provides the atomic counter substrates that the
// MultiCounter algorithm distributes its updates over, plus the exact and
// statistical baselines the experiments compare against.
//
// Three shapes are implemented:
//
//   - Exact: one fetch-and-increment cell — the linearizable baseline whose
//     scalability collapse motivates the paper.
//   - Sharded: m independent padded cells with indexed read/increment — the
//     "bins" of the two-choice process. Sharded deliberately has no policy;
//     the MultiCounter in internal/core owns the two-choice logic.
//   - Striped: per-thread stripes summed on read (a Dice–Lev–Moir style
//     statistical counter) — the related-work baseline: fast increments,
//     linear-cost reads, no per-read relaxation guarantee.
package counters

import "repro/internal/pad"

// Exact is a single linearizable fetch-and-increment counter.
type Exact struct {
	c pad.Uint64
}

// NewExact returns a zeroed exact counter.
func NewExact() *Exact { return &Exact{} }

// Inc atomically increments the counter and returns the value before the
// increment (fetch-and-increment semantics, matching the paper's model).
func (e *Exact) Inc() uint64 { return e.c.Add(1) - 1 }

// Read returns the current value.
func (e *Exact) Read() uint64 { return e.c.Load() }

// Sharded is an array of m independent padded atomic counters.
type Sharded struct {
	cells []pad.Uint64
}

// NewSharded returns m zeroed counters. m must be positive.
func NewSharded(m int) *Sharded {
	if m <= 0 {
		panic("counters: NewSharded needs m > 0")
	}
	return &Sharded{cells: make([]pad.Uint64, m)}
}

// Len returns the number of counters.
func (s *Sharded) Len() int { return len(s.cells) }

// Read returns the current value of counter i.
func (s *Sharded) Read(i int) uint64 { return s.cells[i].Load() }

// Inc atomically increments counter i by 1 and returns the new value.
func (s *Sharded) Inc(i int) uint64 { return s.cells[i].Add(1) }

// Add atomically adds delta to counter i and returns the new value.
func (s *Sharded) Add(i int, delta uint64) uint64 { return s.cells[i].Add(delta) }

// Sum returns the sum of all counters. The scan is not atomic; in concurrent
// runs it is a lower bound on the true total at return time. Experiments use
// it only at quiescence, where it is exact.
func (s *Sharded) Sum() uint64 {
	var total uint64
	for i := range s.cells {
		total += s.cells[i].Load()
	}
	return total
}

// MinMax returns the smallest and largest counter values in one scan
// (non-atomic; used at quiescence or for monitoring).
func (s *Sharded) MinMax() (min, max uint64) {
	min = s.cells[0].Load()
	max = min
	for i := 1; i < len(s.cells); i++ {
		v := s.cells[i].Load()
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Snapshot copies all counter values into dst, which must have length
// Len(). The copy is per-cell atomic but not globally atomic.
func (s *Sharded) Snapshot(dst []uint64) {
	if len(dst) != len(s.cells) {
		panic("counters: Snapshot dst length mismatch")
	}
	for i := range dst {
		dst[i] = s.cells[i].Load()
	}
}

// Striped is a statistical counter: each thread increments its own stripe
// and Read sums all stripes. Increments never contend, but Read costs O(p)
// and the value returned has no per-operation deviation bound under
// concurrency — exactly the trade-off the MultiCounter's distributional
// guarantee improves on.
type Striped struct {
	stripes []pad.Uint64
}

// NewStriped returns a counter with p stripes (one per thread).
func NewStriped(p int) *Striped {
	if p <= 0 {
		panic("counters: NewStriped needs p > 0")
	}
	return &Striped{stripes: make([]pad.Uint64, p)}
}

// Inc increments the stripe owned by thread id.
func (s *Striped) Inc(id int) { s.stripes[id].Add(1) }

// Read sums all stripes.
func (s *Striped) Read() uint64 {
	var total uint64
	for i := range s.stripes {
		total += s.stripes[i].Load()
	}
	return total
}
