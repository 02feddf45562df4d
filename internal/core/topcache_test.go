package core

import (
	"testing"
	"time"

	"repro/internal/cpq"
)

// TestEmptyScanTakesNoLocks pins the tentpole's acceptance criterion: once a
// MultiQueue is (observed) empty, Dequeue's d-choice comparison, its
// fallback sweep and TryDequeue's whole budget must perform zero
// lock acquisitions — they read cached top words only. The proof is by
// construction: every internal queue's lock is held by a simulated crashed
// holder (LockForTest takes the lock without marking the word mid-update,
// exactly like a thread that died between acquiring and mutating), so any
// lock acquisition on the scan path would block forever; and every word's
// publication sequence is compared before/after, so any mutating critical
// section would be counted. The watchdog converts a deadlock into a failure
// instead of a test timeout.
func TestEmptyScanTakesNoLocks(t *testing.T) {
	for _, batch := range []int{1, 8} {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 16}, Seed: 3, Stickiness: 4, Batch: batch})
		h := q.NewHandle(5)
		// Give every word a non-trivial history, then drain to empty.
		for i := 0; i < 256; i++ {
			h.Enqueue(uint64(i))
		}
		h.Flush()
		for {
			if _, ok := h.Dequeue(); !ok {
				break
			}
		}

		seqs := make([]uint64, q.m)
		for i := range q.qs {
			w := q.qs[i].ReadTop()
			if !w.StableEmpty() {
				t.Fatalf("batch=%d: queue %d word not stable-empty after drain", batch, i)
			}
			seqs[i] = w.Seq()
		}
		for i := range q.qs {
			if !q.qs[i].LockForTest() {
				t.Fatalf("batch=%d: could not seize lock %d", batch, i)
			}
		}

		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, ok := h.Dequeue(); ok {
				t.Errorf("batch=%d: Dequeue found an element in an empty structure", batch)
			}
			if _, ok := h.TryDequeue(64); ok {
				t.Errorf("batch=%d: TryDequeue found an element in an empty structure", batch)
			}
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("batch=%d: empty scan blocked on a held queue lock", batch)
		}

		for i := range q.qs {
			q.qs[i].UnlockForTest()
		}
		for i := range q.qs {
			if got := q.qs[i].ReadTop().Seq(); got != seqs[i] {
				t.Fatalf("batch=%d: queue %d mutation counter moved %d -> %d during the empty scan",
					batch, i, seqs[i], got)
			}
		}
	}
}

// TestLockedTopReadAblation pins why ablation A5 (top reads through the
// lock) could go: at quiescence a shard's lock-free top word reports exactly
// what a locked read of its heap does, so the two configurations only ever
// differed in cost. Checked on every shard after every dequeue of a full
// round trip, which must return each element once.
func TestLockedTopReadAblation(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Seed: 9})
	agree := func(step int) {
		for i := range q.qs {
			pq := &q.qs[i]
			want := uint64(cpq.TopKeyEmpty)
			for _, it := range pq.AppendTo(nil) {
				want = min(want, it.Priority)
			}
			if w := pq.ReadTop(); w.InFlight() || w.Key() != want {
				t.Fatalf("step %d: queue %d cached top %d (in flight %v), locked read %d",
					step, i, w.Key(), w.InFlight(), want)
			}
		}
	}
	h := q.NewHandle(1)
	for i := 0; i < 100; i++ {
		h.Enqueue(uint64(i))
	}
	h.Flush()
	agree(0)
	seen := make(map[uint64]bool, 100)
	for n := 0; n < 100; n++ {
		it, ok := h.Dequeue()
		if !ok {
			t.Fatalf("drained only %d of 100", n)
		}
		if seen[it.Value] {
			t.Fatalf("value %d dequeued twice", it.Value)
		}
		seen[it.Value] = true
		agree(n + 1)
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("extra element after full drain")
	}
}
