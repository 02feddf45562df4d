package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/heap"
)

// TestContendedShardIsRedrawn seizes one shard's lock with LockForTest (a
// holder that stalls and never publishes) while that shard is both the
// handle's sticky insert target and its d-choice winner, in per-op and in
// batched mode. Flush and Dequeue must finish on the other shards without
// waiting: the seized shard's top word does not move, the refusals show as
// sampler rerolls, and once the lock is released a drain returns every
// element exactly once. A last resort — a publish whose draws refuse the
// seized shard m times in a row, or the sweep after 2·m refused draws — does
// wait on it, as it should; the run that sees a blocking acquisition
// (LockContended) releases the shard and tries the next seed, so the test
// does not depend on one seed's draws.
func TestContendedShardIsRedrawn(t *testing.T) {
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			for seed := uint64(1); seed < 200; seed++ {
				if redrawnRun(t, batch, seed) {
					return
				}
			}
			t.Fatal("no seed ran without a last resort waiting on the seized shard")
		})
	}
}

// redrawnRun is one TestContendedShardIsRedrawn run with the handle seeded
// by seed. The seized shard is the insert target, which must also be a
// dequeue candidate and not shard 0, which the sweep visits first. It
// reports false, having checked nothing, when the seed's candidates do not
// allow that or when a last resort waited on the seized shard.
func redrawnRun(t *testing.T, batch int, seed uint64) bool {
	const m, n = 4, 64
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: m}, Stickiness: n, Batch: batch})
	// Draw both sticky choices up front.
	h := q.NewHandle(seed)
	victim := h.enq.Candidates(&h.r, batch)[0]
	if victim == 0 || !slices.Contains(h.deq.Candidates(&h.r, batch), victim) {
		return false
	}
	want := map[uint64]bool{}
	for i := range q.qs {
		// The victim holds the smallest key, so it wins every comparison it
		// takes part in.
		p := uint64(1000 + i)
		if i == victim {
			p = 0
		}
		q.qs[i].AddBatch([]heap.Item{{Priority: p, Value: p}})
		want[p] = true
	}
	if !q.qs[victim].LockForTest() {
		t.Fatal("could not seize the victim's lock")
	}
	seq, rerolls := q.qs[victim].ReadTop().Seq(), h.Rerolls()

	got := map[uint64]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := uint64(100); v < 100+n; v++ {
			h.EnqueuePriority(v, v)
			want[v] = true
		}
		h.Flush()
		for i := 0; i < n/2; i++ {
			it, ok := h.Dequeue()
			if !ok || got[it.Value] {
				t.Errorf("dequeue %d: %+v, %v (seen before: %v)", i, it, ok, got[it.Value])
				return
			}
			got[it.Value] = true
		}
	}()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(30 * time.Second)
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		case <-tick.C:
			if q.Stats().LockContended != 0 {
				// A last resort waits on the victim: let it finish.
				q.qs[victim].UnlockForTest()
				<-done
				return false
			}
		case <-deadline:
			q.qs[victim].UnlockForTest()
			t.Fatal("Flush or Dequeue neither finished nor waited on a lock")
		}
	}
	if q.Stats().LockContended != 0 {
		q.qs[victim].UnlockForTest()
		return false
	}
	if got[0] {
		t.Error("the seized shard's element was dequeued")
	}
	if s := q.qs[victim].ReadTop().Seq(); s != seq {
		t.Errorf("seized shard's top-word sequence moved %d -> %d", seq, s)
	}
	if h.Rerolls() <= rerolls {
		t.Errorf("Rerolls stayed at %d with the sticky shard seized", rerolls)
	}

	q.qs[victim].UnlockForTest()
	h.Close()
	d := q.NewHandle(99)
	for it, ok := d.Dequeue(); ok; it, ok = d.Dequeue() {
		if got[it.Value] {
			t.Fatalf("element %d returned twice", it.Value)
		}
		got[it.Value] = true
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d distinct elements, want %d", len(got), len(want))
	}
	return true
}

// TestSeizedShardsSweepWaits seizes every shard of a non-empty structure.
// Every draw is refused, so Dequeue reaches its deterministic sweep, which
// is the step that waits on a lock: it must not return while all locks are
// held, and must return shard 0's element once shard 0 is released.
func TestSeizedShardsSweepWaits(t *testing.T) {
	for _, batch := range []int{1, 4} {
		const m = 4
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: m}, Batch: batch})
		h := q.NewHandle(1)
		for i := range q.qs {
			q.qs[i].AddBatch([]heap.Item{{Priority: uint64(i), Value: uint64(i)}})
			if !q.qs[i].LockForTest() {
				t.Fatalf("batch=%d: could not seize lock %d", batch, i)
			}
		}
		got := make(chan heap.Item, 1)
		go func() {
			it, ok := h.Dequeue()
			if !ok {
				t.Errorf("batch=%d: Dequeue found nothing in a non-empty structure", batch)
			}
			got <- it
		}()
		select {
		case it := <-got:
			t.Fatalf("batch=%d: Dequeue returned %+v with every shard seized", batch, it)
		case <-time.After(50 * time.Millisecond):
		}
		q.qs[0].UnlockForTest()
		select {
		case it := <-got:
			if it.Value != 0 {
				t.Errorf("batch=%d: sweep returned %+v, want shard 0's element", batch, it)
			}
		case <-time.After(30 * time.Second):
			// Release the rest so the waiting Dequeue can finish.
			for i := 1; i < m; i++ {
				q.qs[i].UnlockForTest()
			}
			<-got
			t.Fatalf("batch=%d: sweep did not return after shard 0 was released", batch)
		}
		for i := 1; i < m; i++ {
			q.qs[i].UnlockForTest()
		}
		if h.Rerolls() < 2*m {
			t.Errorf("batch=%d: %d rerolls, want one per refused draw (%d)", batch, h.Rerolls(), 2*m)
		}
	}
}
