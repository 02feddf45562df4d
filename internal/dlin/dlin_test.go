package dlin

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestFenwickBasics(t *testing.T) {
	f := NewFenwick(10)
	if f.Len() != 10 {
		t.Fatalf("Len = %d", f.Len())
	}
	f.Add(3, 1)
	f.Add(7, 2)
	if f.PrefixSum(2) != 0 || f.PrefixSum(3) != 1 || f.PrefixSum(10) != 3 {
		t.Fatal("prefix sums wrong")
	}
	if f.Get(7) != 2 || f.Get(6) != 0 {
		t.Fatal("Get wrong")
	}
	if f.PrefixSum(f.Len()) != 3 {
		t.Fatalf("total = %d", f.PrefixSum(f.Len()))
	}
	f.Add(7, -2)
	if f.PrefixSum(f.Len()) != 1 || f.Get(7) != 0 {
		t.Fatal("negative Add failed")
	}
	f.Reset()
	if f.PrefixSum(f.Len()) != 0 || f.PrefixSum(10) != 0 {
		t.Fatal("Reset failed")
	}
}

func TestFenwickMatchesNaiveQuick(t *testing.T) {
	f := func(deltas []uint8) bool {
		n := 64
		fw := NewFenwick(n)
		naive := make([]int64, n+1)
		for _, d := range deltas {
			pos := int(d%uint8(n)) + 1
			fw.Add(pos, int64(d%5))
			naive[pos] += int64(d % 5)
		}
		var run int64
		for i := 1; i <= n; i++ {
			run += naive[i]
			if fw.PrefixSum(i) != run {
				return false
			}
			if fw.Get(i) != naive[i] {
				return false
			}
		}
		return fw.PrefixSum(n+100) == run // clamped overflow query
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFenwickPanics(t *testing.T) {
	f := NewFenwick(4)
	for _, pos := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add(%d) did not panic", pos)
				}
			}()
			f.Add(pos, 1)
		}()
	}
}

func TestCounterSpec(t *testing.T) {
	var c CounterSpec
	cost, err := c.Apply(Method{Name: "inc"})
	if err != nil || cost != 0 {
		t.Fatalf("inc: cost=%v err=%v", cost, err)
	}
	// One increment applied; a read returning 5 costs |5-1| = 4.
	cost, err = c.Apply(Method{Name: "read", Ret: 5})
	if err != nil || cost != 4 {
		t.Fatalf("read: cost=%v err=%v", cost, err)
	}
	// Reads below the true count also cost.
	c.Apply(Method{Name: "inc"})
	c.Apply(Method{Name: "inc"})
	cost, _ = c.Apply(Method{Name: "read", Ret: 0})
	if cost != 3 {
		t.Fatalf("low read cost = %v", cost)
	}
	if c.count != 3 {
		t.Fatalf("count = %d", c.count)
	}
	if _, err := c.Apply(Method{Name: "bogus"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	c.Reset()
	if c.count != 0 {
		t.Fatal("Reset failed")
	}
}

func TestQueueSpecRanks(t *testing.T) {
	q := newQueueSpec(10)
	for _, l := range []uint64{1, 2, 3, 4, 5} {
		if _, err := q.Apply(Method{Name: "enq", Arg: l}); err != nil {
			t.Fatal(err)
		}
	}
	if f := (*Fenwick)(q); f.PrefixSum(f.Len()) != 5 {
		t.Fatalf("%d labels present, want 5", f.PrefixSum(f.Len()))
	}
	// Dequeue the exact minimum: cost 0.
	cost, err := q.Apply(Method{Name: "deq", Ret: 1, OK: true})
	if err != nil || cost != 0 {
		t.Fatalf("deq(1): cost=%v err=%v", cost, err)
	}
	// Dequeue label 4: present are {2,3,4,5}, rank 3, cost 2.
	cost, err = q.Apply(Method{Name: "deq", Ret: 4, OK: true})
	if err != nil || cost != 2 {
		t.Fatalf("deq(4): cost=%v err=%v", cost, err)
	}
	// Dequeue absent label: error (violates even the relaxed spec).
	if _, err := q.Apply(Method{Name: "deq", Ret: 4, OK: true}); err == nil {
		t.Fatal("dequeue of absent label accepted")
	}
	// Unsuccessful dequeue: free.
	cost, err = q.Apply(Method{Name: "deq", OK: false})
	if err != nil || cost != 0 {
		t.Fatalf("empty deq: cost=%v err=%v", cost, err)
	}
	// Out-of-range labels rejected.
	if _, err := q.Apply(Method{Name: "enq", Arg: 11}); err == nil {
		t.Fatal("out-of-range enqueue accepted")
	}
	if _, err := q.Apply(Method{Name: "enq", Arg: 0}); err == nil {
		t.Fatal("zero label accepted")
	}
}

func ev(kind trace.Kind, start, lin, end uint64, th int32) trace.Event {
	return trace.Event{Kind: kind, Start: start, Lin: lin, End: end, Th: th}
}

func TestCheckRealTimeOrderValid(t *testing.T) {
	events := []trace.Event{
		ev(trace.KindInc, 1, 2, 3, 0),
		ev(trace.KindInc, 2, 4, 6, 1), // overlaps the first; fine
		ev(trace.KindInc, 7, 8, 9, 0),
	}
	if err := CheckRealTimeOrder(events); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRealTimeOrderRejectsBadWindow(t *testing.T) {
	events := []trace.Event{ev(trace.KindInc, 5, 2, 7, 0)} // lin before start
	if err := CheckRealTimeOrder(events); err == nil {
		t.Fatal("lin outside window accepted")
	}
	events = []trace.Event{ev(trace.KindInc, 1, 9, 7, 0)} // lin after end
	if err := CheckRealTimeOrder(events); err == nil {
		t.Fatal("lin outside window accepted")
	}
}

func TestCheckRealTimeOrderRejectsUnsorted(t *testing.T) {
	events := []trace.Event{
		ev(trace.KindInc, 1, 5, 6, 0),
		ev(trace.KindInc, 1, 3, 6, 1),
	}
	if err := CheckRealTimeOrder(events); err == nil {
		t.Fatal("unsorted events accepted")
	}
}

func TestCheckRealTimeOrderRejectsProgramOrderViolation(t *testing.T) {
	events := []trace.Event{
		ev(trace.KindInc, 1, 2, 10, 0),
		ev(trace.KindInc, 5, 6, 7, 0), // same thread, starts before prior end
	}
	if err := CheckRealTimeOrder(events); err == nil {
		t.Fatal("program-order violation accepted")
	}
}

// TestSortedByLinImpliesRealTimeOrder is the O(n²) audit backing the fast
// check: any window-respecting, Lin-sorted history preserves the order of
// non-overlapping operations.
func TestSortedByLinImpliesRealTimeOrder(t *testing.T) {
	f := func(raw []uint8) bool {
		// Build events with random windows on one thread each (avoiding
		// program-order complications), sorted by Lin.
		var events []trace.Event
		var stamp uint64 = 1
		for i, r := range raw {
			width := uint64(r%7) + 1
			e := ev(trace.KindInc, stamp, stamp+uint64(r)%width, stamp+width, int32(i))
			if e.Lin < e.Start {
				e.Lin = e.Start
			}
			events = append(events, e)
			stamp += uint64(r%3) + 1
		}
		// sort by Lin
		for i := 1; i < len(events); i++ {
			for j := i; j > 0 && events[j].Lin < events[j-1].Lin; j-- {
				events[j], events[j-1] = events[j-1], events[j]
			}
		}
		if err := CheckRealTimeOrder(events); err != nil {
			return true // fast check rejected it; nothing to audit
		}
		// O(n²) audit: no pair may violate real-time order.
		for a := range events {
			for b := a + 1; b < len(events); b++ {
				if events[b].End < events[a].Start {
					return false // b entirely before a but linearized after
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayCounterHistory(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindInc, Start: 1, Lin: 1, End: 1, Th: 0},
		{Kind: trace.KindInc, Start: 2, Lin: 2, End: 2, Th: 1},
		{Kind: trace.KindRead, Start: 3, Lin: 3, End: 3, Th: 0, Ret: 4},
		{Kind: trace.KindInc, Start: 4, Lin: 4, End: 4, Th: 1},
		{Kind: trace.KindRead, Start: 5, Lin: 5, End: 5, Th: 0, Ret: 3},
	}
	w, err := Replay(&CounterSpec{}, events)
	if err != nil {
		t.Fatal(err)
	}
	if w.Ops != 5 {
		t.Fatalf("Ops = %d", w.Ops)
	}
	// First read: |4-2| = 2; second: |3-3| = 0. Path cost 2.
	if w.PathCost != 2 {
		t.Fatalf("PathCost = %v", w.PathCost)
	}
	if w.Costs.N() != 2 || w.Costs.Max() != 2 {
		t.Fatalf("Costs: n=%d max=%v", w.Costs.N(), w.Costs.Max())
	}
}

// TestReplayChargesReadAtCheapestPoint pins the read-window rule: a read is
// charged at the cheapest point of its [Start, End] window, not at its Lin
// stamp. The read below loaded its value when two increments were done and
// was stamped only after two more; its window covers both states.
func TestReplayChargesReadAtCheapestPoint(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindInc, Start: 1, Lin: 1, End: 1, Th: 1},
		{Kind: trace.KindInc, Start: 2, Lin: 2, End: 2, Th: 1},
		{Kind: trace.KindInc, Start: 4, Lin: 4, End: 4, Th: 1},
		{Kind: trace.KindInc, Start: 5, Lin: 5, End: 5, Th: 1},
		{Kind: trace.KindRead, Start: 3, Lin: 6, End: 6, Th: 0, Ret: 2}, // count 2 at Start, 4 at Lin
		{Kind: trace.KindInc, Start: 8, Lin: 8, End: 8, Th: 1},
		{Kind: trace.KindRead, Start: 7, Lin: 9, End: 9, Th: 0, Ret: 9}, // count 4, then 5
		{Kind: trace.KindRead, Start: 10, Lin: 10, End: 10, Th: 0, Ret: 3},
	}
	w, err := Replay(&CounterSpec{}, events)
	if err != nil {
		t.Fatal(err)
	}
	// Costs: 0 (at Start), min(|9-4|, |9-5|) = 4, |3-5| = 2.
	if w.PathCost != 6 || w.Costs.N() != 3 || w.Costs.Max() != 4 {
		t.Fatalf("PathCost %v, %d costs, max %v; want 6, 3, 4", w.PathCost, w.Costs.N(), w.Costs.Max())
	}
}

func TestReplayQueueHistory(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindEnq, Start: 1, Lin: 1, End: 1, Arg: 1},
		{Kind: trace.KindEnq, Start: 2, Lin: 2, End: 2, Arg: 2},
		{Kind: trace.KindEnq, Start: 3, Lin: 3, End: 3, Arg: 3},
		{Kind: trace.KindDeq, Start: 4, Lin: 4, End: 4, Ret: 2, OK: true}, // rank 2: cost 1
		{Kind: trace.KindDeq, Start: 5, Lin: 5, End: 5, Ret: 1, OK: true}, // rank 1: cost 0
	}
	w, err := Replay(newQueueSpec(3), events)
	if err != nil {
		t.Fatal(err)
	}
	if w.PathCost != 1 {
		t.Fatalf("PathCost = %v", w.PathCost)
	}
}

func TestReplayRejectsInvalidHistory(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindDeq, Start: 1, Lin: 1, End: 1, Ret: 1, OK: true},
	}
	if _, err := Replay(newQueueSpec(3), events); err == nil {
		t.Fatal("dequeue-before-enqueue accepted")
	}
	if _, err := Replay(newQueueSpec(3), []trace.Event{ev(trace.KindInc, 5, 2, 7, 0)}); err == nil || !strings.Contains(err.Error(), "linearization") {
		t.Fatalf("order violation not reported: %v", err)
	}
}

func TestEnvelope(t *testing.T) {
	if Envelope(1) != 1 {
		t.Fatal("Envelope(1)")
	}
	if Envelope(64) != 64*6 {
		t.Fatalf("Envelope(64) = %v", Envelope(64))
	}
	if Envelope(100) != 100*6 { // floor(log2(100)) = 6
		t.Fatalf("Envelope(100) = %v", Envelope(100))
	}
}

func TestWitnessTail(t *testing.T) {
	// Build a witness via Replay on a small counter history.
	var events []trace.Event
	stamp := uint64(1)
	addEvent := func(kind trace.Kind, ret uint64) {
		events = append(events, trace.Event{Kind: kind, Start: stamp, Lin: stamp, End: stamp, Ret: ret})
		stamp++
	}
	// 4 increments, then reads with costs 0, 4, 8, 16 relative to count 4.
	for i := 0; i < 4; i++ {
		addEvent(trace.KindInc, 0)
	}
	for _, v := range []uint64{4, 8, 12, 20} {
		addEvent(trace.KindRead, v)
	}
	ww, err := Replay(&CounterSpec{}, events)
	if err != nil {
		t.Fatal(err)
	}
	// m = 4: envelope = 4*2 = 8. Costs are 0, 4, 8, 16.
	tail := ww.Tail(4, 0.5, 1, 2)
	// > 4: two costs (8, 16) -> 0.5 ; > 8: one cost -> 0.25 ; > 16: none.
	if tail[0].Frac != 0.5 || tail[1].Frac != 0.25 || tail[2].Frac != 0 {
		t.Fatalf("tail = %+v", tail)
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Frac > tail[i-1].Frac {
			t.Fatal("tail not monotone non-increasing")
		}
	}
}
