//go:build dlzfail

package cpq

import (
	"testing"
	"time"

	"repro/internal/fail"
	"repro/internal/heap"
)

// TestTryPathsRefuseUnderInjection proves all four try entry points route
// through cpq/try/refuse: with an every-other-hit error policy armed they
// alternate refusal and success, and refused calls leave the queue's state
// untouched (the lock was never taken).
func TestTryPathsRefuseUnderInjection(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	q := newQueue(16)
	fail.Arm(fail.SiteCPQTryRefuse, fail.Policy{Kind: fail.KindError, Every: 2})

	// Every=2 fires on hits 2, 4, ... — first call of each pair succeeds.
	if !q.TryAdd(5, 100) {
		t.Fatal("hit 1: TryAdd refused")
	}
	if q.TryAdd(6, 101) {
		t.Fatal("hit 2: TryAdd succeeded through an armed refusal")
	}
	if !q.TryAddBatch([]heap.Item{{Priority: 7, Value: 102}}) {
		t.Fatal("hit 3: TryAddBatch refused")
	}
	if q.TryAddBatch([]heap.Item{{Priority: 8, Value: 103}}) {
		t.Fatal("hit 4: TryAddBatch succeeded through an armed refusal")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after 2 accepted inserts, want 2", q.Len())
	}

	if it, ok, acquired := q.TryDeleteMin(); !acquired || !ok || it.Value != 100 {
		t.Fatalf("hit 5: TryDeleteMin = (%v, %v, %v), want element 100", it, ok, acquired)
	}
	if _, _, acquired := q.TryDeleteMin(); acquired {
		t.Fatal("hit 6: TryDeleteMin acquired through an armed refusal")
	}
	if out, acquired := q.TryDeleteMinUpTo(4, nil); !acquired || len(out) != 1 {
		t.Fatalf("hit 7: TryDeleteMinUpTo = (%d items, %v), want the last element", len(out), acquired)
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
	q.Add(50, 1) // non-empty, published min 50

	fail.Arm(fail.SiteCPQTopPublish, fail.Policy{Kind: fail.KindDelay, Delay: 50 * time.Millisecond, Count: 1})
	done := make(chan struct{})
	go func() {
		q.Add(10, 2) // changes the minimum: Begin → [delay] → Publish
		close(done)
	}()

	sawInFlight := false
	deadline := time.Now().Add(2 * time.Second)
	for !sawInFlight && time.Now().Before(deadline) {
		w := q.ReadTop()
		if w.InFlight() {
			sawInFlight = true
			// The stale payload is the previously published minimum.
			if w.Min() != 50 {
				t.Errorf("mid-update payload = %d, want stale 50", w.Min())
			}
		}
	}
	<-done
	if !sawInFlight {
		t.Fatal("reader never observed the widened mid-update window")
	}
	if w := q.ReadTop(); w.InFlight() || w.Min() != 10 {
		t.Errorf("post-publish word = (min %d, inflight %v), want stable 10", w.Min(), w.InFlight())
	}
}
