package dlin

import (
	"fmt"
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Witness is the result of mapping a concurrent history onto a quantitative
// path of the relaxed sequential process (Definition 5.2): the per-operation
// costs in linearization order, plus the order-preservation audit.
type Witness struct {
	// Costs holds one entry per cost-bearing operation (reads for the
	// counter spec, successful dequeues for the queue spec), in
	// linearization order.
	Costs *stats.Sample
	// PathCost is the running sum of all transition costs (the monotone
	// path cost function pcost of Section 5, instantiated as the sum fold).
	PathCost float64
	// Ops is the total number of transitions replayed.
	Ops int
}

// methodOf translates a recorded event into a spec method label.
func methodOf(ev trace.Event) Method {
	switch ev.Kind {
	case trace.KindInc:
		return Method{Name: "inc"}
	case trace.KindRead:
		return Method{Name: "read", Ret: ev.Ret}
	case trace.KindEnq:
		return Method{Name: "enq", Arg: ev.Arg}
	case trace.KindDeq:
		return Method{Name: "deq", Ret: ev.Ret, OK: ev.OK}
	default:
		return Method{Name: "unknown"}
	}
}

// costBearing reports whether the event contributes a cost sample.
func costBearing(ev trace.Event) bool {
	return ev.Kind == trace.KindRead || (ev.Kind == trace.KindDeq && ev.OK)
}

// CheckRealTimeOrder verifies that the linearization order (the order of
// events, which Merge sorts by Lin stamp) respects the real-time order of
// non-overlapping operations, and that every linearization point lies within
// its operation's execution window. This is the structural half of
// Definition 5.2; the cost half is Replay.
//
// Because events arrive sorted by Lin, it suffices to check that no later
// event *started* after an earlier event *ended* with the pair ordered the
// other way around — equivalently, that Lin stamps within [Start, End]
// windows can never invert a non-overlapping pair. The scan keeps the
// maximum End seen so far among events whose windows are fully in the past.
func CheckRealTimeOrder(events []trace.Event) error {
	var prevLin uint64
	for k, ev := range events {
		if ev.Lin < ev.Start || ev.Lin > ev.End {
			return fmt.Errorf("dlin: event %d: linearization stamp %d outside window [%d, %d]",
				k, ev.Lin, ev.Start, ev.End)
		}
		if k > 0 && ev.Lin < prevLin {
			return fmt.Errorf("dlin: events %d and %d not sorted by linearization stamp", k-1, k)
		}
		prevLin = ev.Lin
	}
	// With all Lin stamps inside their windows and the sequence sorted by
	// Lin, a non-overlapping pair (a ends before b starts) satisfies
	// a.Lin <= a.End < b.Start <= b.Lin, so a precedes b. A direct O(n²)
	// audit is available in tests; here we additionally verify per-thread
	// program order, which must also hold (a thread's operations never
	// overlap each other).
	lastEnd := map[int32]uint64{}
	for k, ev := range events {
		if end, seen := lastEnd[ev.Th]; seen && ev.Start < end {
			return fmt.Errorf("dlin: event %d violates thread %d program order (start %d < previous end %d)",
				k, ev.Th, ev.Start, end)
		}
		lastEnd[ev.Th] = ev.End
	}
	return nil
}

// Replay maps the history onto the relaxed sequential process defined by
// spec and returns the witness. Events must be in linearization order
// (trace.Recorder.Merge provides this). Replay fails if the history cannot
// be mapped — e.g. a dequeue returns a label that was never enqueued, which
// would mean the concurrent structure violated even the *relaxed* sequential
// specification, not just incurred cost.
//
// A counter read changes no state, so every point of its [Start, End] window
// is a valid linearization point for it: moving it there keeps the order of
// non-overlapping operations and its thread's program order. Replay charges
// each read at its cheapest point — the state after every event linearized
// before its Start, and after each later state change up to its own Lin — so
// a reader descheduled between its shard load and its Lin stamp is not
// charged for the increments other threads linearized meanwhile.
func Replay(spec Spec, events []trace.Event) (*Witness, error) {
	if err := CheckRealTimeOrder(events); err != nil {
		return nil, err
	}
	spec.Reset()
	w := &Witness{Costs: stats.NewSample(len(events))}
	// opensAt[j] lists the reads whose window opens just before event j: the
	// events before j are exactly those linearized before the read's Start.
	opensAt := map[int][]int{}
	for k, ev := range events {
		if ev.Kind == trace.KindRead {
			j := sort.Search(k, func(i int) bool { return events[i].Lin >= ev.Start })
			opensAt[j] = append(opensAt[j], k)
		}
	}
	open := map[int]float64{} // open read -> its cheapest cost so far
	charge := func(r int) error {
		cost, err := spec.Apply(methodOf(events[r]))
		if err != nil {
			return fmt.Errorf("dlin: event %d: %w", r, err)
		}
		if best, seen := open[r]; !seen || cost < best {
			open[r] = cost
		}
		return nil
	}
	for k, ev := range events {
		for _, r := range opensAt[k] {
			if err := charge(r); err != nil {
				return nil, err
			}
		}
		var cost float64
		if ev.Kind == trace.KindRead {
			cost = open[k]
			delete(open, k)
		} else {
			var err error
			if cost, err = spec.Apply(methodOf(ev)); err != nil {
				return nil, fmt.Errorf("dlin: event %d: %w", k, err)
			}
			for r := range open {
				if err := charge(r); err != nil {
					return nil, err
				}
			}
		}
		w.PathCost += cost
		w.Ops++
		if costBearing(ev) {
			w.Costs.Add(cost)
		}
	}
	return w, nil
}

// Envelope returns m·log2(m), the scale of the paper's high-probability
// deviation bounds (Theorem 6.1's O(m·log m) counter deviation and
// Theorem 7.1's O(m·log m) rank bound). Experiments report costs normalized
// by this envelope.
func Envelope(m int) float64 {
	if m < 2 {
		return 1
	}
	l := 0.0
	for v := m; v > 1; v >>= 1 {
		l++
	}
	return float64(m) * l
}

// TailPoint is one point of the empirical cost tail: the fraction of
// cost-bearing operations whose cost exceeded R times the envelope.
type TailPoint struct {
	R    float64
	Frac float64
}

// Tail evaluates the witness's empirical complement CDF at multiples R of
// the m·log m envelope. Lemma 6.8 bounds the corresponding probability by
// m^(−Ω(R)); a sound implementation therefore shows a steeply decaying
// sequence. This is the "tail bounds on the cost distributions induced by
// all possible schedules" that Section 5's remark 2 promises.
func (w *Witness) Tail(m int, rs ...float64) []TailPoint {
	env := Envelope(m)
	out := make([]TailPoint, len(rs))
	for i, r := range rs {
		out[i] = TailPoint{R: r, Frac: w.Costs.TailFraction(r * env)}
	}
	return out
}
