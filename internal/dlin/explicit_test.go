package dlin

import (
	"testing"
	"testing/quick"
)

// This file renders Definition 5.1 literally, as a test fixture: a finite
// labeled transition system LTS(S) = (Q, Σ, →, q0) over explicit states,
// with state 0 as q0 and a Method as a label of Σ. The executable Specs in
// lts.go are the unbounded, efficient form; the tests below check the
// defining property of a quantitative relaxation on bounded instances:
// "cost(q, m, q') = 0 if and only if q →m q' in LTS(S)".

// explicitLTS maps (state, label) to the successor state; absence means no
// transition with that label.
type explicitLTS map[int]map[Method]int

func (l explicitLTS) add(q int, label Method, qNext int) {
	if l[q] == nil {
		l[q] = map[Method]int{}
	}
	l[q][label] = qNext
}

// step returns the successor of q under label, with ok reporting whether the
// transition exists in LTS(S).
func (l explicitLTS) step(q int, label Method) (int, bool) {
	next, ok := l[q][label]
	return next, ok
}

// accepts reports whether the trace is in the set of traces of q0, i.e.
// whether the sequential history belongs to S ("u ∈ S iff q0 →u").
func (l explicitLTS) accepts(tr []Method) bool {
	q := 0
	for _, lab := range tr {
		next, ok := l.step(q, lab)
		if !ok {
			return false
		}
		q = next
	}
	return true
}

// boundedCounterLTS builds LTS(S) for a counter that performs at most
// maxCount increments: states are the counter values 0..maxCount, "inc"
// moves k→k+1, and "read" returning exactly k loops at k, for reads
// returning values 0..maxRead.
func boundedCounterLTS(maxCount, maxRead uint64) explicitLTS {
	l := explicitLTS{}
	for k := uint64(0); k <= maxCount; k++ {
		if k < maxCount {
			l.add(int(k), Method{Name: "inc"}, int(k)+1)
		}
		// The only zero-cost read in state k returns k.
		if k <= maxRead {
			l.add(int(k), Method{Name: "read", Ret: k}, int(k))
		}
	}
	return l
}

// boundedQueueLTS builds LTS(S) for a priority-ordered queue over labels
// 1..maxLabel: states are bitmasks of present labels, "enq l" inserts an
// absent label, and "deq" removing the minimum present label is the only
// zero-cost dequeue. Unsuccessful dequeues loop on the empty set.
func boundedQueueLTS(maxLabel int) explicitLTS {
	l := explicitLTS{}
	for set := 0; set < 1<<maxLabel; set++ {
		for lab := 1; lab <= maxLabel; lab++ {
			if bit := 1 << (lab - 1); set&bit == 0 {
				l.add(set, Method{Name: "enq", Arg: uint64(lab)}, set|bit)
			}
		}
		if set == 0 {
			l.add(0, Method{Name: "deq", OK: false}, 0)
			continue
		}
		min := 1
		for set&(1<<(min-1)) == 0 {
			min++
		}
		l.add(set, Method{Name: "deq", Ret: uint64(min), OK: true}, set&^(1<<(min-1)))
	}
	return l
}

func newQueueSpec(maxLabel uint64) *QueueSpec { return (*QueueSpec)(NewFenwick(int(maxLabel))) }

func TestBoundedCounterLTSAccepts(t *testing.T) {
	l := boundedCounterLTS(3, 3)
	cases := []struct {
		trace []Method
		want  bool
	}{
		{[]Method{}, true},
		{[]Method{{Name: "inc"}}, true},
		{[]Method{{Name: "inc"}, {Name: "read", Ret: 1}}, true},
		{[]Method{{Name: "read", Ret: 0}}, true},
		{[]Method{{Name: "read", Ret: 1}}, false},                                     // wrong value in state 0
		{[]Method{{Name: "inc"}, {Name: "inc"}, {Name: "inc"}, {Name: "inc"}}, false}, // beyond bound
		{[]Method{{Name: "inc"}, {Name: "read", Ret: 0}}, false},
	}
	for i, c := range cases {
		if got := l.accepts(c.trace); got != c.want {
			t.Fatalf("case %d: accepts = %v, want %v", i, got, c.want)
		}
	}
}

// TestCounterSpecMatchesExplicitLTS is the defining property of a
// quantitative relaxation (Section 5, step 2): the executable CounterSpec
// assigns cost 0 to a transition exactly when the explicit LTS contains it.
func TestCounterSpecMatchesExplicitLTS(t *testing.T) {
	const bound = 12
	l := boundedCounterLTS(bound, bound)
	f := func(ops []uint8) bool {
		spec := &CounterSpec{}
		q := 0
		incs := 0
		for _, o := range ops {
			var lab Method
			if o%3 == 0 && incs < bound {
				lab = Method{Name: "inc"}
				incs++
			} else {
				lab = Method{Name: "read", Ret: uint64(o % (bound + 1))}
			}
			cost, err := spec.Apply(lab)
			if err != nil {
				return false
			}
			next, inLTS := l.step(q, lab)
			if (cost == 0) != inLTS {
				return false // relaxation property violated
			}
			if inLTS {
				q = next
			} else if lab.Name == "inc" {
				q++ // completion advances the count anyway
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedQueueLTSAccepts(t *testing.T) {
	l := boundedQueueLTS(4)
	enq := func(x uint64) Method { return Method{Name: "enq", Arg: x} }
	deq := func(x uint64) Method { return Method{Name: "deq", Ret: x, OK: true} }
	cases := []struct {
		trace []Method
		want  bool
	}{
		{[]Method{enq(1), deq(1)}, true},
		{[]Method{enq(2), enq(1), deq(1), deq(2)}, true},
		{[]Method{enq(2), enq(1), deq(2)}, false}, // not the minimum
		{[]Method{deq(1)}, false},                 // empty
		{[]Method{{Name: "deq", OK: false}}, true},
		{[]Method{enq(1), enq(1)}, false}, // duplicate label
	}
	for i, c := range cases {
		if got := l.accepts(c.trace); got != c.want {
			t.Fatalf("case %d: accepts = %v, want %v", i, got, c.want)
		}
	}
}

// TestQueueSpecMatchesExplicitLTS: QueueSpec's zero-cost transitions are
// exactly the explicit queue LTS's transitions (dequeue of the minimum).
func TestQueueSpecMatchesExplicitLTS(t *testing.T) {
	const maxLabel = 8
	l := boundedQueueLTS(maxLabel)
	f := func(ops []uint8) bool {
		spec := newQueueSpec(maxLabel)
		q := 0
		present := map[uint64]bool{}
		for _, o := range ops {
			lab := uint64(o%maxLabel) + 1
			if o%2 == 0 && !present[lab] {
				m := Method{Name: "enq", Arg: lab}
				cost, err := spec.Apply(m)
				if err != nil || cost != 0 {
					return false
				}
				next, ok := l.step(q, m)
				if !ok {
					return false
				}
				q = next
				present[lab] = true
				continue
			}
			if present[lab] {
				m := Method{Name: "deq", Ret: lab, OK: true}
				cost, err := spec.Apply(m)
				if err != nil {
					return false
				}
				next, inLTS := l.step(q, m)
				if (cost == 0) != inLTS {
					return false // zero cost iff dequeued the minimum
				}
				if inLTS {
					q = next
				} else {
					// Completion: remove the label from the explicit state
					// by hand to keep the two machines aligned.
					q = q &^ (1 << uint(lab-1))
				}
				delete(present, lab)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixClosure: S is prefix-closed (definition of a sequential data
// structure); every prefix of an accepted trace is accepted.
func TestPrefixClosure(t *testing.T) {
	l := boundedCounterLTS(6, 6)
	trace := []Method{
		{Name: "inc"}, {Name: "read", Ret: 1}, {Name: "inc"}, {Name: "inc"},
		{Name: "read", Ret: 3}, {Name: "inc"},
	}
	if !l.accepts(trace) {
		t.Fatal("full trace rejected")
	}
	for k := 0; k <= len(trace); k++ {
		if !l.accepts(trace[:k]) {
			t.Fatalf("prefix of length %d rejected", k)
		}
	}
}
