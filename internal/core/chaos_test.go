//go:build dlzfail

package core

import (
	"testing"

	"repro/internal/fail"
	"repro/internal/heap"
)

// TestRerollStormStillDequeues arms core/deq/reroll so a burst of d-choice
// draws is discarded as if every sampled queue were contended, and checks the
// dequeuer rides the sampler's reroll path to a successful removal anyway —
// for both the blocking and the try dequeue.
func TestRerollStormStillDequeues(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Seed: 3})
	h := q.NewHandle(1)
	defer h.Close()
	for i := 0; i < 32; i++ {
		h.Enqueue(uint64(i))
	}

	fail.Arm(fail.SiteCoreReroll, fail.Policy{Kind: fail.KindError, Count: 5})
	before := h.Rerolls()
	if _, ok := h.Dequeue(); !ok {
		t.Fatal("Dequeue failed under a bounded reroll storm")
	}
	if h.Rerolls() <= before {
		t.Error("injected storm did not register as sampler rerolls")
	}

	fail.Arm(fail.SiteCoreReroll, fail.Policy{Kind: fail.KindError, Count: 5})
	if _, ok := h.TryDequeue(64); !ok {
		t.Fatal("TryDequeue failed under a bounded reroll storm")
	}
	if fail.Fires(fail.SiteCoreReroll) == 0 {
		t.Error("TryDequeue never hit the reroll failpoint")
	}
}

// TestFlushPanicKeepsBufferIntact pins the core/flush contract the dlzd
// repair ladder depends on: a panic interrupting the batch flush fires
// before any element publishes, leaving the insert buffer intact, so a
// recovering owner retries Flush and no element is lost or duplicated.
func TestFlushPanicKeepsBufferIntact(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 2}, Batch: 16, Stickiness: 16, Seed: 7})
	h := q.NewHandle(1)
	const n = 5 // below Batch, so the elements sit in the insert buffer
	for i := 0; i < n; i++ {
		h.Enqueue(uint64(100 + i))
	}

	fail.Arm(fail.SiteCoreFlush, fail.Policy{Kind: fail.KindPanic, Count: 1})
	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("armed flush did not panic")
			}
			if site, ok := fail.IsInjectedPanic(rec); !ok || site != fail.SiteCoreFlush {
				t.Fatalf("unexpected panic value: %v", rec)
			}
		}()
		h.Flush()
	}()

	// The interrupted flush published nothing; the retry publishes everything.
	if got := q.Len(); got != 0 {
		t.Fatalf("interrupted flush published %d elements", got)
	}
	h.Flush()
	if got := q.Len(); got != n {
		t.Fatalf("retried flush published %d elements, want %d", got, n)
	}
	seen := map[uint64]bool{}
	for {
		it, ok := h.Dequeue()
		if !ok {
			break
		}
		if seen[it.Value] {
			t.Fatalf("element %d delivered twice", it.Value)
		}
		seen[it.Value] = true
	}
	if len(seen) != n {
		t.Fatalf("drained %d distinct elements, want %d", len(seen), n)
	}
	h.Close()
}

// TestEveryTryRefusedStillFinishes arms cpq/try/refuse to refuse every try,
// which is what a structure whose every lock is always held looks like to
// the redraw loops. Inserts, Flush, Dequeue and Close must still finish
// through their blocking last resorts — a publish after m refusals, the
// dequeue sweep, Close's publish of the prefetch remainder — and a drain
// must return every element exactly once.
func TestEveryTryRefusedStillFinishes(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	for _, batch := range []int{1, 8} {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Stickiness: 8, Batch: batch})
		h := q.NewHandle(1)
		fail.Arm(fail.SiteCPQTryRefuse, fail.Policy{Kind: fail.KindError})
		const n = 100
		for i := 0; i < n; i++ {
			h.Enqueue(uint64(i))
		}
		h.Flush()
		seen := map[uint64]bool{}
		take := func(it heap.Item) {
			if seen[it.Value] {
				t.Fatalf("batch=%d: element %d returned twice", batch, it.Value)
			}
			seen[it.Value] = true
		}
		for i := 0; i < n/2; i++ {
			it, ok := h.Dequeue()
			if !ok {
				t.Fatalf("batch=%d: Dequeue %d found nothing", batch, i)
			}
			take(it)
		}
		h.Close()
		d := q.NewHandle(2)
		for it, ok := d.Dequeue(); ok; it, ok = d.Dequeue() {
			take(it)
		}
		if len(seen) != n {
			t.Fatalf("batch=%d: drained %d distinct elements, want %d", batch, len(seen), n)
		}
		if fail.Fires(fail.SiteCPQTryRefuse) == 0 {
			t.Fatalf("batch=%d: no try was refused", batch)
		}
		fail.Reset()
	}
}
