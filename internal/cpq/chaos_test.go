//go:build dlzfail

package cpq

import (
	"testing"
	"time"

	"repro/internal/fail"
	"repro/internal/heap"
)

// TestTryPathsRefuseUnderInjection proves both try entry points, with one
// item and with several, route through cpq/try/refuse: with an
// every-other-hit error policy armed they alternate refusal and success, and
// refused calls leave the queue's state untouched (the lock was never taken).
func TestTryPathsRefuseUnderInjection(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	q := newQueue(16)
	fail.Arm(fail.SiteCPQTryRefuse, fail.Policy{Kind: fail.KindError, Every: 2})

	// Every=2 fires on hits 2, 4, ... — first call of each pair succeeds.
	if !tryAddOne(q, 5, 100) {
		t.Fatal("hit 1: one-item TryAddBatch refused")
	}
	if tryAddOne(q, 6, 101) {
		t.Fatal("hit 2: one-item TryAddBatch succeeded through an armed refusal")
	}
	if !q.TryAddBatch([]heap.Item{{Priority: 7, Value: 102}, {Priority: 8, Value: 103}}) {
		t.Fatal("hit 3: TryAddBatch refused")
	}
	if q.TryAddBatch([]heap.Item{{Priority: 9, Value: 104}, {Priority: 10, Value: 105}}) {
		t.Fatal("hit 4: TryAddBatch succeeded through an armed refusal")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after 3 accepted inserts, want 3", q.Len())
	}

	if it, ok, acquired := tryDeleteOne(q); !acquired || !ok || it.Value != 100 {
		t.Fatalf("hit 5: TryDeleteMinUpTo(1) = (%v, %v, %v), want element 100", it, ok, acquired)
	}
	if _, _, acquired := tryDeleteOne(q); acquired {
		t.Fatal("hit 6: TryDeleteMinUpTo(1) acquired through an armed refusal")
	}
	if out, acquired := q.TryDeleteMinUpTo(4, nil); !acquired || len(out) != 2 {
		t.Fatalf("hit 7: TryDeleteMinUpTo = (%d items, %v), want the last two elements", len(out), acquired)
	}
	if _, acquired := q.TryDeleteMinUpTo(4, nil); acquired {
		t.Fatal("hit 8: TryDeleteMinUpTo acquired through an armed refusal")
	}
	if got := fail.Fires(fail.SiteCPQTryRefuse); got != 4 {
		t.Errorf("refusal fires = %d, want 4", got)
	}
}

// TestTopPublishDelayWidensInFlightWindow arms a delay at cpq/top/publish
// and observes, from a lock-free reader, the mid-update sentinel that is
// normally visible only for a few instructions: the delayed publisher holds
// the word in-flight long enough for readers to see it, and the word returns
// to stable with the exact new minimum afterwards.
func TestTopPublishDelayWidensInFlightWindow(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	q := newQueue(16)
	addOne(q, 50, 1) // non-empty, published min 50

	fail.Arm(fail.SiteCPQTopPublish, fail.Policy{Kind: fail.KindDelay, Delay: 50 * time.Millisecond, Count: 1})
	done := make(chan struct{})
	go func() {
		addOne(q, 10, 2) // changes the minimum: Begin → [delay] → Publish
		close(done)
	}()

	sawInFlight := false
	deadline := time.Now().Add(2 * time.Second)
	for !sawInFlight && time.Now().Before(deadline) {
		w := q.ReadTop()
		if w.InFlight() {
			sawInFlight = true
			// The stale payload is the previously published minimum.
			if w.minPrio() != 50 {
				t.Errorf("mid-update payload = %d, want stale 50", w.minPrio())
			}
		}
	}
	<-done
	if !sawInFlight {
		t.Fatal("reader never observed the widened mid-update window")
	}
	if w := q.ReadTop(); w.InFlight() || w.minPrio() != 10 {
		t.Errorf("post-publish word = (min %d, inflight %v), want stable 10", w.minPrio(), w.InFlight())
	}
}
