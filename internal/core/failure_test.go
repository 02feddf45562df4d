package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cpq"
	"repro/internal/heap"
)

// Failure-injection tests: the paper's model lets the adversary crash up to
// n−1 processes. The MultiCounter is built from lock-free primitives, so
// crashed threads cannot block others; the MultiQueue's per-queue locks are
// a real liveness hazard that the TryDequeue path is designed to route
// around. These tests pin both behaviours down.

// TestMultiCounterSurvivesCrashedThreads: workers that stop mid-stream (the
// crash model: simply never scheduled again) cannot affect other workers'
// progress or the counter's exactness for completed increments.
func TestMultiCounterSurvivesCrashedThreads(t *testing.T) {
	mc := NewMultiCounter(64)
	const healthy, crashed, per = 4, 4, 5000
	var wg sync.WaitGroup
	crashPoint := make(chan struct{})
	var crashedDone sync.WaitGroup

	// Crashed workers do a few increments then "crash" (return).
	crashedDone.Add(crashed)
	for w := 0; w < crashed; w++ {
		go func(w int) {
			defer crashedDone.Done()
			h := mc.NewHandle(uint64(w) + 100)
			for i := 0; i < 10; i++ {
				h.Increment()
			}
			<-crashPoint // parked forever from the algorithm's viewpoint
		}(w)
	}

	wg.Add(healthy)
	for w := 0; w < healthy; w++ {
		go func(w int) {
			defer wg.Done()
			h := mc.NewHandle(uint64(w) + 1)
			for i := 0; i < per; i++ {
				h.Increment()
			}
		}(w)
	}
	wg.Wait()
	// Healthy workers completed healthy*per increments; crashed workers
	// completed exactly 10 each before crashing.
	if got, want := mc.Exact(), uint64(healthy*per+crashed*10); got != want {
		t.Fatalf("Exact = %d, want %d", got, want)
	}
	close(crashPoint)
	crashedDone.Wait()
}

// TestMultiQueueTryDequeueRoutesAroundDeadLockHolder: if a thread crashes
// while holding one queue's lock, TryDequeue keeps making progress by
// re-drawing, as long as other queues hold elements.
func TestMultiQueueTryDequeueRoutesAroundDeadLockHolder(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 8}, Seed: 1})
	h := q.NewHandle(2)
	for v := uint64(0); v < 800; v++ {
		h.Enqueue(v)
	}
	// Simulate a crashed lock holder on one internal queue by locking it
	// directly and never unlocking.
	victim := &q.qs[3]
	locked := victim.LockForTest()
	if !locked {
		t.Fatal("could not acquire victim lock")
	}

	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := h.TryDequeue(32); ok {
			got++
			if got >= 300 { // plenty of progress despite the dead queue
				return
			}
		}
	}
	t.Fatalf("only %d dequeues succeeded with one dead queue", got)
}

// TestCPQTryOpsSkipHeldLock: the cpq building block's try-operations fail
// fast on a held lock instead of blocking.
func TestCPQTryOpsSkipHeldLock(t *testing.T) {
	pq := cpq.New(0, 8, 0)
	pq.AddBatch([]heap.Item{{Priority: 1, Value: 10}})
	if !pq.LockForTest() {
		t.Fatal("setup lock failed")
	}
	if pq.TryAddBatch([]heap.Item{{Priority: 2, Value: 20}}) {
		t.Fatal("TryAddBatch succeeded on a held lock")
	}
	if _, acquired := pq.TryDeleteMinUpTo(1, nil); acquired {
		t.Fatal("TryDeleteMinUpTo acquired a held lock")
	}
	// The top word stays readable (lock-free cached top) — the property the
	// two-choice comparison depends on even when a lock holder is stalled.
	if pq.ReadTop().Key() != 1 {
		t.Fatalf("ReadTop().Key() = %d under held lock", pq.ReadTop().Key())
	}
	pq.UnlockForTest()
	if !pq.TryAddBatch([]heap.Item{{Priority: 2, Value: 20}}) {
		t.Fatal("TryAddBatch failed after unlock")
	}
}
