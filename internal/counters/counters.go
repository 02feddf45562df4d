// Package counters provides Exact, one fetch-and-increment cell: the
// linearizable baseline whose scalability collapse motivates the paper, and
// the one the experiments compare the MultiCounter against. The
// MultiCounter's own m cells live in internal/core.
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
