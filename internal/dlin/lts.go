// Package dlin implements the distributional linearizability framework of
// Section 5: sequential specifications as labeled transition systems,
// their randomized quantitative relaxations (completion + cost function +
// path cost + cost distribution), and the witness mapping that takes a
// recorded concurrent history onto a quantitative path of the relaxed
// sequential process, checking that outputs and the order of non-overlapping
// operations are preserved and extracting the empirical cost distribution.
package dlin

import "fmt"

// Method is a label in Σ: a method name together with its input and output
// values, as in Definition 5.1.
type Method struct {
	Name string
	Arg  uint64
	Ret  uint64
	OK   bool
}

// Spec is an executable sequential specification with quantitative
// relaxation: the completed LTS of Section 5 steps 1–3, folded into a state
// machine. Apply performs the transition labelled m from the current state
// and returns its cost; the cost is zero exactly when the transition exists
// in LTS(S) (step 2's condition). Path cost is the caller's fold over the
// returned per-step costs (monotone under any of the paper's aggregation
// choices, since costs are non-negative).
type Spec interface {
	// Reset returns the machine to the initial state q0.
	Reset()
	// Apply executes one transition and returns its cost.
	Apply(m Method) (cost float64, err error)
}

// CounterSpec is the sequential specification of a counter with methods
// inc and read. The relaxation cost of a read returning v in a state with k
// completed increments is |v − k| — the deviation Theorem 6.1 bounds by
// O(m·log m). Increments always cost zero (the MultiCounter relaxes only
// the values reads observe, not the increment count itself).
type CounterSpec struct {
	count uint64
}

// Reset implements Spec.
func (c *CounterSpec) Reset() { c.count = 0 }

// Apply implements Spec. Methods: "inc" (Ret ignored), "read" (Ret = value).
func (c *CounterSpec) Apply(m Method) (float64, error) {
	switch m.Name {
	case "inc":
		c.count++
		return 0, nil
	case "read":
		k := c.count
		if m.Ret >= k {
			return float64(m.Ret - k), nil
		}
		return float64(k - m.Ret), nil
	default:
		return 0, fmt.Errorf("dlin: counter spec has no method %q", m.Name)
	}
}

// QueueSpec is the sequential specification of a queue with priority-ordered
// removal (the relaxed priority queue of Section 7). Labels are the unique
// uint64 priorities assigned at enqueue. The relaxation cost of a dequeue
// returning label x is rank(x) − 1 among the labels present: an exact queue
// always removes rank 1 at cost 0, and Theorem 7.1 bounds the relaxed cost
// by O(m) in expectation and O(m·log m) w.h.p.
//
// It is a Fenwick tree over the label space, read as a queue: a spec for
// labels in [1, n] is (*QueueSpec)(NewFenwick(n)), and a history with E
// enqueues replays in O(E·log E).
type QueueSpec Fenwick

// Reset implements Spec.
func (q *QueueSpec) Reset() { (*Fenwick)(q).Reset() }

// Apply implements Spec. Methods: "enq" (Arg = label), "deq" (Ret = label,
// OK = found).
func (q *QueueSpec) Apply(m Method) (float64, error) {
	present := (*Fenwick)(q)
	maxL := uint64(present.Len())
	switch m.Name {
	case "enq":
		if m.Arg == 0 || m.Arg > maxL {
			return 0, fmt.Errorf("dlin: enqueue label %d out of range [1,%d]", m.Arg, maxL)
		}
		present.Add(int(m.Arg), 1)
		return 0, nil
	case "deq":
		if !m.OK {
			// An unsuccessful dequeue is a zero-cost no-op transition; the
			// relaxed spec permits returning empty when the chosen queues
			// are empty.
			return 0, nil
		}
		if m.Ret == 0 || m.Ret > maxL {
			return 0, fmt.Errorf("dlin: dequeue label %d out of range [1,%d]", m.Ret, maxL)
		}
		if present.Get(int(m.Ret)) == 0 {
			return 0, fmt.Errorf("dlin: dequeue of absent label %d", m.Ret)
		}
		rank := present.PrefixSum(int(m.Ret)) // labels <= Ret present
		present.Add(int(m.Ret), -1)
		return float64(rank - 1), nil
	default:
		return 0, fmt.Errorf("dlin: queue spec has no method %q", m.Name)
	}
}
