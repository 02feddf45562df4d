package dlin

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// recordQueueHistory runs a live concurrent MultiQueue workload and returns
// its merged history plus the largest enqueue label — the raw material the
// corruption tests mutate. The uncorrupted history must replay cleanly, so
// every rejection below is attributable to the injected corruption alone.
func recordQueueHistory(t *testing.T, workers, per int) ([]trace.Event, uint64) {
	t.Helper()
	q := core.NewMultiQueue(core.MultiQueueConfig{Topology: core.Topology{InitialM: 8}, Seed: 3})
	rec := trace.NewRecorder(workers, 2*per+1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle(uint64(w) + 7)
			log := rec.Log(w)
			for i := 0; i < per; i++ {
				h.EnqueueTraced(uint64(i), rec, log)
				if i%2 == 1 {
					h.DequeueTraced(rec, log)
				}
			}
		}(w)
	}
	wg.Wait()
	events := rec.Merge()
	var maxLabel uint64
	for _, e := range events {
		if e.Kind == trace.KindEnq && e.Arg > maxLabel {
			maxLabel = e.Arg
		}
	}
	if _, err := Replay(newQueueSpec(maxLabel), events); err != nil {
		t.Fatalf("uncorrupted history rejected: %v", err)
	}
	return events, maxLabel
}

// cloneEvents deep-copies a history so each corruption starts from the same
// clean baseline.
func cloneEvents(events []trace.Event) []trace.Event {
	out := make([]trace.Event, len(events))
	copy(out, events)
	return out
}

// findNonOverlapping returns indices a < b of two events from different
// threads where a ends strictly before b starts.
func findNonOverlapping(t *testing.T, events []trace.Event) (int, int) {
	t.Helper()
	for a := range events {
		for b := a + 1; b < len(events); b++ {
			if events[a].Th != events[b].Th && events[a].End < events[b].Start {
				return a, b
			}
		}
	}
	t.Fatal("history has no non-overlapping pair across threads")
	return 0, 0
}

func TestNegativeSwapLinOfNonOverlappingOps(t *testing.T) {
	events, _ := recordQueueHistory(t, 4, 500)
	a, b := findNonOverlapping(t, events)

	// Variant 1: swap the Lin stamps in place. The sequence is no longer
	// sorted by linearization stamp, which CheckRealTimeOrder must flag.
	bad := cloneEvents(events)
	bad[a].Lin, bad[b].Lin = bad[b].Lin, bad[a].Lin
	if err := CheckRealTimeOrder(bad); err == nil {
		t.Fatal("swapped Lin stamps (unsorted) accepted")
	}

	// Variant 2: swap and re-sort, as a checker fed by Merge would see it.
	// Now each stamp sits outside its operation's [Start, End] window:
	// accepting it would linearize b before a although a finished first.
	resorted := cloneEvents(bad)
	sort.Slice(resorted, func(i, j int) bool { return resorted[i].Lin < resorted[j].Lin })
	err := CheckRealTimeOrder(resorted)
	if err == nil {
		t.Fatal("swapped+resorted Lin stamps accepted")
	}
	if !strings.Contains(err.Error(), "outside window") {
		t.Fatalf("unexpected rejection reason: %v", err)
	}
}

func TestNegativeLinOutsideInvocationWindow(t *testing.T) {
	events, maxLabel := recordQueueHistory(t, 4, 500)
	for name, mutate := range map[string]func(*trace.Event){
		"after-end":    func(ev *trace.Event) { ev.Lin = ev.End + 1_000_000 },
		"before-start": func(ev *trace.Event) { ev.Lin = ev.Start - 1 },
	} {
		bad := cloneEvents(events)
		// Corrupt a mid-history event with a non-degenerate window start.
		k := len(bad) / 2
		for bad[k].Start == 0 {
			k++
		}
		mutate(&bad[k])
		sort.Slice(bad, func(i, j int) bool { return bad[i].Lin < bad[j].Lin })
		if err := CheckRealTimeOrder(bad); err == nil {
			t.Fatalf("%s: linearization point outside window accepted", name)
		}
		// Replay must refuse the same history before touching the spec.
		if _, err := Replay(newQueueSpec(maxLabel), bad); err == nil {
			t.Fatalf("%s: Replay accepted unlinearizable history", name)
		}
	}
}

func TestNegativeDroppedEnqueue(t *testing.T) {
	events, maxLabel := recordQueueHistory(t, 4, 500)
	// Find a successful dequeue and delete its matching enqueue: the history
	// then dequeues a label that was never inserted, violating even the
	// relaxed specification.
	deq := -1
	for k, ev := range events {
		if ev.Kind == trace.KindDeq && ev.OK {
			deq = k
			break
		}
	}
	if deq < 0 {
		t.Fatal("history has no successful dequeue")
	}
	label := events[deq].Ret
	bad := make([]trace.Event, 0, len(events)-1)
	for _, ev := range events {
		if ev.Kind == trace.KindEnq && ev.Arg == label {
			continue
		}
		bad = append(bad, ev)
	}
	if len(bad) != len(events)-1 {
		t.Fatalf("expected exactly one enqueue of label %d", label)
	}
	_, err := Replay(newQueueSpec(maxLabel), bad)
	if err == nil {
		t.Fatal("history with dropped enqueue accepted")
	}
	if !strings.Contains(err.Error(), "absent label") {
		t.Fatalf("unexpected rejection reason: %v", err)
	}
}

func TestNegativeDuplicateDequeue(t *testing.T) {
	events, maxLabel := recordQueueHistory(t, 4, 500)
	deq := -1
	for k, ev := range events {
		if ev.Kind == trace.KindDeq && ev.OK {
			deq = k
			break
		}
	}
	if deq < 0 {
		t.Fatal("history has no successful dequeue")
	}
	// Append a second dequeue of the same label in a fresh window after all
	// recorded activity; it is well-formed order-wise but removes an element
	// that is no longer present.
	last := events[len(events)-1]
	dup := events[deq]
	dup.Start = last.End + 1
	dup.Lin = last.End + 2
	dup.End = last.End + 3
	bad := append(cloneEvents(events), dup)
	if err := CheckRealTimeOrder(bad); err != nil {
		t.Fatalf("structurally valid duplicate rejected for the wrong reason: %v", err)
	}
	if _, err := Replay(newQueueSpec(maxLabel), bad); err == nil {
		t.Fatal("duplicate dequeue accepted")
	}
}

func TestNegativeProgramOrderViolation(t *testing.T) {
	events, _ := recordQueueHistory(t, 4, 500)
	// Give one thread two overlapping operations: a thread cannot invoke an
	// operation before its previous one returned.
	bad := cloneEvents(events)
	th := bad[0].Th
	first, second := -1, -1
	for k := range bad {
		if bad[k].Th != th {
			continue
		}
		if first < 0 {
			first = k
		} else {
			second = k
			break
		}
	}
	if second < 0 {
		t.Fatal("thread has fewer than two events")
	}
	// Moving the second invocation backwards to inside the first's window
	// cannot disturb the Lin sort or the window containment (Start only
	// shrinks, Lin and End are untouched), so the *only* new defect is the
	// program-order overlap.
	bad[second].Start = bad[first].End - 1
	err := CheckRealTimeOrder(bad)
	if err == nil {
		t.Fatal("program-order violation accepted")
	}
	if !strings.Contains(err.Error(), "program order") {
		t.Fatalf("unexpected rejection reason: %v", err)
	}
}

// TestNegativeCounterUnknownMethod covers the spec-level rejection path for
// the counter: a history event that maps to no spec method must fail Replay
// rather than silently costing zero.
func TestNegativeCounterUnknownMethod(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindInc, Start: 1, Lin: 1, End: 1, Th: 0},
		{Kind: trace.KindEnq, Arg: 1, Start: 2, Lin: 2, End: 2, Th: 0}, // queue op in a counter history
	}
	if _, err := Replay(&CounterSpec{}, events); err == nil {
		t.Fatal("counter spec accepted an enqueue event")
	}
}
