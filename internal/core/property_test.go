package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// stickyBatchGrid is the (Stickiness, Batch) sweep the property and stress
// tests cover: the per-op baseline, each knob alone, both together, and a
// non-divisor batch size so partial flushes are exercised. Subtest names end
// in /a0, the uniform sampler, so their ids outlive the sampler choice the
// suffix once recorded.
var stickyBatchGrid = []struct{ stick, batch int }{
	{0, 0}, // zero values normalize to 1/1: Algorithm 2 exactly
	{1, 1},
	{4, 1},
	{1, 4},
	{4, 4},
	{8, 7}, // 7 never divides the op counts below: Flush moves a partial batch
}

// TestPropertyQuiescentDrainExactMultiset is the conservation property the
// ISSUE demands: for every (Stickiness, Batch) combination, after
// all handles flush, a quiescent drain returns exactly the multiset of
// enqueued values — no loss, no duplication — and Len/Sizes agree with the
// element count before the drain and with zero after it.
func TestPropertyQuiescentDrainExactMultiset(t *testing.T) {
	for _, g := range stickyBatchGrid {
		t.Run(fmt.Sprintf("binary/s%d/k%d/a0", g.stick, g.batch), func(t *testing.T) {
			const handles, per, m = 3, 1000, 8
			q := NewMultiQueue(MultiQueueConfig{
				Topology:   Topology{InitialM: m},
				Stickiness: g.stick, Batch: g.batch,
			})
			hs := make([]*MQHandle, handles)
			for i := range hs {
				hs[i] = q.NewHandle(uint64(i) + 1)
			}
			want := make(map[uint64]int, handles*per)
			for i, h := range hs {
				for j := 0; j < per; j++ {
					v := uint64(i*per + j)
					h.Enqueue(v)
					want[v]++
				}
			}
			for _, h := range hs {
				h.Flush()
				if h.Buffered() != 0 {
					t.Fatalf("Buffered = %d after Flush", h.Buffered())
				}
			}
			if q.Len() != handles*per {
				t.Fatalf("Len = %d after flush, want %d", q.Len(), handles*per)
			}
			sizes := make([]int, m)
			q.Sizes(sizes)
			sum := 0
			for _, s := range sizes {
				sum += s
			}
			if sum != q.Len() {
				t.Fatalf("Sizes sum %d != Len %d", sum, q.Len())
			}
			// Drain through a handle that did not enqueue anything.
			drainer := q.NewHandle(99)
			got := make(map[uint64]int, handles*per)
			for {
				it, ok := drainer.Dequeue()
				if !ok {
					break
				}
				got[it.Value]++
			}
			if len(got) != len(want) {
				t.Fatalf("drained %d distinct values, want %d", len(got), len(want))
			}
			for v, n := range want {
				if got[v] != n {
					t.Fatalf("value %d drained %d times, want %d", v, got[v], n)
				}
			}
			if q.Len() != 0 || drainer.Prefetched() != 0 {
				t.Fatalf("Len=%d Prefetched=%d after full drain", q.Len(), drainer.Prefetched())
			}
		})
	}
}

// TestPropertySingleHandleDrainSeesOwnBuffer checks the fallback-sweep flush:
// a lone batched handle that enqueues fewer elements than its batch size and
// immediately drains must still observe every element, because Dequeue
// flushes the handle's own insert buffer before declaring emptiness.
func TestPropertySingleHandleDrainSeesOwnBuffer(t *testing.T) {
	for _, g := range stickyBatchGrid {
		q := NewMultiQueue(MultiQueueConfig{
			Topology: Topology{InitialM: 4}, Seed: 11, Stickiness: g.stick, Batch: g.batch,
		})
		h := q.NewHandle(1)
		const n = 5 // below every batch size in the grid except 1 and 4
		for v := uint64(0); v < n; v++ {
			h.Enqueue(v)
		}
		seen := map[uint64]bool{}
		for {
			it, ok := h.Dequeue()
			if !ok {
				break
			}
			if seen[it.Value] {
				t.Fatalf("s=%d k=%d: value %d twice", g.stick, g.batch, it.Value)
			}
			seen[it.Value] = true
		}
		if len(seen) != n {
			t.Fatalf("s=%d k=%d: drained %d, want %d", g.stick, g.batch, len(seen), n)
		}
	}
}

// TestPropertyTryDequeueSeesOwnBuffer is the regression test for the
// batched TryDequeue gap: a lone handle whose enqueues are all still in its
// insert buffer must be able to get them back through TryDequeue alone —
// the variant flushes its own buffer and retries before reporting empty.
func TestPropertyTryDequeueSeesOwnBuffer(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Seed: 13, Batch: 8})
	h := q.NewHandle(1)
	const n = 3 // strictly less than Batch: nothing is flushed yet
	for v := uint64(0); v < n; v++ {
		h.Enqueue(v)
	}
	if h.Buffered() != n {
		t.Fatalf("Buffered = %d, want %d", h.Buffered(), n)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		it, ok := h.TryDequeue(64)
		if !ok {
			t.Fatalf("TryDequeue %d failed with %d elements buffered", i, n-i)
		}
		seen[it.Value] = true
	}
	if len(seen) != n {
		t.Fatalf("recovered %d distinct values, want %d", len(seen), n)
	}
	if _, ok := h.TryDequeue(64); ok {
		t.Fatal("TryDequeue on drained queue returned ok")
	}
}

// TestPropertyTryDequeueBatchedRoutesAroundDeadLockHolder extends the
// per-op liveness test to the sticky/batched mode: with one internal
// queue's lock held by a simulated crashed thread, a batched TryDequeue —
// including its non-blocking buffer flush — must keep making progress and
// never block, because every step on the try path uses try-locks only.
func TestPropertyTryDequeueBatchedRoutesAroundDeadLockHolder(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 8}, Seed: 1, Stickiness: 4, Batch: 4})
	h := q.NewHandle(2)
	for v := uint64(0); v < 800; v++ {
		h.Enqueue(v)
	}
	// Keep 3 elements in the insert buffer so the flush path is exercised.
	for v := uint64(800); v < 803; v++ {
		h.Enqueue(v)
	}
	if h.Buffered() == 0 {
		t.Fatal("expected a partial insert buffer")
	}
	victim := &q.qs[3]
	if !victim.LockForTest() {
		t.Fatal("could not acquire victim lock")
	}
	defer victim.UnlockForTest()

	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := h.TryDequeue(32); ok {
			got++
			if got >= 300 {
				return
			}
		}
	}
	t.Fatalf("only %d batched dequeues succeeded with one dead queue", got)
}

// TestPropertyPriorityModeStickyBatched checks EnqueuePriority routes
// through the same sticky/batched insert path and respects ordering bias:
// after a flush, the global minimum must come out of an early dequeue.
func TestPropertyPriorityModeStickyBatched(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Seed: 21, Stickiness: 4, Batch: 4})
	h := q.NewHandle(2)
	for p := uint64(1000); p >= 1; p-- {
		h.EnqueuePriority(p, p)
	}
	h.Flush()
	it, ok := h.Dequeue()
	if !ok {
		t.Fatal("dequeue failed")
	}
	if it.Priority > 100 {
		t.Fatalf("first dequeue returned priority %d; relaxation too weak", it.Priority)
	}
}

// counterGrid is the Choices × Stickiness × Batch sweep the MultiCounter
// conservation properties cover: the paper's per-op two-choice default, the
// single-choice ablation, each amortisation knob alone, both together, and a
// non-divisor batch size so partial flushes are exercised. Subtest names end
// in /a0 like stickyBatchGrid's.
var counterGrid = []struct{ d, stick, batch int }{
	{0, 0, 0}, // zero values normalize to 2/1/1: Algorithm 1 exactly
	{1, 1, 1},
	{2, 4, 1},
	{2, 1, 4},
	{2, 4, 4},
	{4, 8, 8},
	{2, 8, 7}, // 7 never divides the op counts below: Flush moves a partial batch
}

// TestPropertyMultiCounterConservation is the counter-side conservation
// property the ISSUE demands: for every Choices × Stickiness × Batch
// combination, the sum of flushed increments equals the observed counter
// total — while running, Exact plus each handle's BufferedWeight accounts
// for every issued update; after all handles flush, Exact alone does.
func TestPropertyMultiCounterConservation(t *testing.T) {
	for _, g := range counterGrid {
		g := g
		t.Run(fmt.Sprintf("d%d/s%d/k%d/a0", g.d, g.stick, g.batch), func(t *testing.T) {
			const workers, per, m = 4, 5000, 16
			mc := NewMultiCounterConfig(MultiCounterConfig{
				Topology: Topology{InitialM: m}, Choices: g.d, Stickiness: g.stick, Batch: g.batch,
			})
			var wg sync.WaitGroup
			handles := make([]*Handle, workers)
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					h := mc.NewHandle(uint64(w) + 1)
					handles[w] = h
					for i := 0; i < per; i++ {
						if i%3 == 0 {
							h.Add(2) // weighted path shares the buffer
						} else {
							h.Increment()
						}
					}
				}(w)
			}
			wg.Wait()
			// Issued weight per worker: per increments, every third of weight 2.
			perWeight := uint64(0)
			for i := 0; i < per; i++ {
				if i%3 == 0 {
					perWeight += 2
				} else {
					perWeight++
				}
			}
			want := uint64(workers) * perWeight
			var buffered uint64
			for _, h := range handles {
				buffered += h.BufferedWeight()
				if (h.Buffered() == 0) != (h.BufferedWeight() == 0) {
					t.Fatalf("Buffered=%d but BufferedWeight=%d", h.Buffered(), h.BufferedWeight())
				}
				if h.Buffered() >= mc.Batch() {
					t.Fatalf("Buffered=%d not below Batch=%d", h.Buffered(), mc.Batch())
				}
			}
			if got := mc.Exact() + buffered; got != want {
				t.Fatalf("Exact+buffered = %d, want %d issued", got, want)
			}
			for _, h := range handles {
				h.Flush()
				if h.Buffered() != 0 || h.BufferedWeight() != 0 {
					t.Fatalf("buffer not empty after Flush")
				}
				h.Flush() // idempotent on an empty buffer
			}
			if got := mc.Exact(); got != want {
				t.Fatalf("Exact = %d after all flushes, want %d", got, want)
			}
		})
	}
}

// TestPropertyMultiCounterBatchAutoFlush checks the batch boundary: the k-th
// buffered increment publishes the whole batch, so a lone handle's buffer
// occupancy cycles through 1..k-1, 0 and Exact advances in k-sized steps.
func TestPropertyMultiCounterBatchAutoFlush(t *testing.T) {
	const m, k = 8, 4
	mc := NewMultiCounterConfig(MultiCounterConfig{Topology: Topology{InitialM: m}, Batch: k})
	h := mc.NewHandle(1)
	for i := 1; i <= 3*k; i++ {
		h.Increment()
		if wantBuf := i % k; h.Buffered() != wantBuf {
			t.Fatalf("after %d increments Buffered = %d, want %d", i, h.Buffered(), wantBuf)
		}
		if wantExact := uint64(i - i%k); mc.Exact() != wantExact {
			t.Fatalf("after %d increments Exact = %d, want %d", i, mc.Exact(), wantExact)
		}
	}
}

// TestPropertyConcurrentStickyBatchedConservation runs the conservation
// property under real concurrency: producers and consumers in sticky/batched
// mode, then a quiescent flush + drain accounting for every element.
func TestPropertyConcurrentStickyBatchedConservation(t *testing.T) {
	for _, g := range stickyBatchGrid {
		g := g
		t.Run(fmt.Sprintf("s%d/k%d/a0", g.stick, g.batch), func(t *testing.T) {
			const producers, consumers, per = 4, 2, 3000
			q := NewMultiQueue(MultiQueueConfig{
				Topology: Topology{InitialM: 16}, Seed: 31, Stickiness: g.stick, Batch: g.batch,
			})
			var wg sync.WaitGroup
			prodHandles := make([]*MQHandle, producers)
			consHandles := make([]*MQHandle, consumers)
			consumed := make([][]uint64, consumers)
			wg.Add(producers + consumers)
			for p := 0; p < producers; p++ {
				go func(p int) {
					defer wg.Done()
					h := q.NewHandle(uint64(p) + 10)
					prodHandles[p] = h
					for i := 0; i < per; i++ {
						h.Enqueue(uint64(p*per + i))
					}
				}(p)
			}
			for c := 0; c < consumers; c++ {
				go func(c int) {
					defer wg.Done()
					h := q.NewHandle(uint64(c) + 100)
					consHandles[c] = h
					for len(consumed[c]) < per/2 {
						if it, ok := h.Dequeue(); ok {
							consumed[c] = append(consumed[c], it.Value)
						}
					}
				}(c)
			}
			wg.Wait()
			for _, h := range prodHandles {
				h.Flush()
			}
			drainer := q.NewHandle(999)
			seen := make(map[uint64]bool, producers*per)
			record := func(v uint64) {
				if seen[v] {
					t.Fatalf("value %d observed twice", v)
				}
				seen[v] = true
			}
			for _, run := range consumed {
				for _, v := range run {
					record(v)
				}
			}
			// A stopped consumer may still hold a prefetched run: those
			// elements left the shared structure and must be accounted here.
			for _, h := range consHandles {
				for h.Prefetched() > 0 {
					it, ok := h.Dequeue()
					if !ok {
						t.Fatal("Prefetched > 0 but Dequeue failed")
					}
					record(it.Value)
				}
			}
			for {
				it, ok := drainer.Dequeue()
				if !ok {
					break
				}
				record(it.Value)
			}
			if len(seen) != producers*per {
				t.Fatalf("accounted %d values, want %d", len(seen), producers*per)
			}
		})
	}
}
