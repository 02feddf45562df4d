package core

import (
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestDequeueTakesOwnBufferedKey pins the own-buffer dequeue: a refill whose
// handle buffers a key below the winner's stable top returns that key and
// touches no shard, a buffered key above the top stays buffered, and at
// Batch 1 (nothing is ever buffered at a dequeue) the key goes through a
// shard. d = m, so the winner is the shard holding the global minimum.
func TestDequeueTakesOwnBufferedKey(t *testing.T) {
	setup := func(batch int, own uint64) (*MultiQueue, *MQHandle) {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Choices: 4, Batch: batch})
		p := q.NewHandle(1)
		for k := uint64(1000); k < 1064; k++ {
			p.EnqueuePriority(k, k)
		}
		p.Flush()
		h := q.NewHandle(2)
		h.EnqueuePriority(own, own)
		return q, h
	}

	q, h := setup(8, 5)
	n, st := q.Len(), q.Stats()
	if it, ok := h.Dequeue(); !ok || it.Priority != 5 {
		t.Fatalf("Dequeue = %+v, %v; want the buffered key 5", it, ok)
	}
	if h.Buffered() != 0 || q.Len() != n || q.Stats() != st {
		t.Fatalf("after taking its own key: Buffered %d, Len %d (was %d), Stats %+v (was %+v); want 0 and no shard touched",
			h.Buffered(), q.Len(), n, q.Stats(), st)
	}

	_, h = setup(8, 5000)
	if it, ok := h.Dequeue(); !ok || it.Priority != 1000 || h.Buffered() != 1 {
		t.Fatalf("Dequeue = %+v, %v with Buffered %d; want shard key 1000 and 5000 still buffered", it, ok, h.Buffered())
	}

	q, h = setup(1, 5)
	n, st = q.Len(), q.Stats()
	if it, ok := h.Dequeue(); !ok || it.Priority != 5 {
		t.Fatalf("Batch 1: Dequeue = %+v, %v; want 5", it, ok)
	}
	if q.Len() != n-1 || q.Stats().Publications == st.Publications {
		t.Fatalf("Batch 1: Len %d (was %d), Stats %+v (was %+v); want 5 deleted from a shard", q.Len(), n, q.Stats(), st)
	}
}

// TestClockStampedHandleNeverTakesOwnBuffer: a lone clock-stamped handle
// stamps every buffered element after every element it flushed, so no
// shard's top is ever above one, and the audits' one-handle loop draws
// exactly what Algorithm 2's deletion draws.
func TestClockStampedHandleNeverTakesOwnBuffer(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 64}, Stickiness: 16, Batch: 8})
	h := q.NewHandle(3)
	for i := 0; i < 1024; i++ {
		h.Enqueue(0)
	}
	for i := 0; i < 5000; i++ {
		h.Enqueue(0)
		b := h.Buffered()
		if _, ok := h.Dequeue(); !ok || h.Buffered() < b {
			t.Fatalf("op %d: Dequeue ok=%v, Buffered %d -> %d", i, ok, b, h.Buffered())
		}
	}
}

// TestOwnBufferConcurrentConservation runs the benchmark's lib-queue loop
// shape, four handles alternating EnqueuePriority of random keys with
// Dequeue: some dequeues must take the handle's own key, and the drain must
// return exactly what went in (count, sum and xor of the values).
func TestOwnBufferConcurrentConservation(t *testing.T) {
	const handles, prefill, ops = 4, 4096, 20000
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 64}, Stickiness: 16, Batch: 8})
	var in, out [handles + 1]tally
	r := rng.NewXoshiro256(7)
	p := q.NewHandle(8)
	for v := uint64(0); v < prefill; v++ {
		p.EnqueuePriority(r.Next()>>16, v)
		in[handles].add(v)
	}
	p.Close()

	hs := make([]*MQHandle, handles)
	owns := make([]int, handles)
	var wg sync.WaitGroup
	for c := range hs {
		hs[c] = q.NewHandle(uint64(10 + c))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h, r := hs[c], rng.NewXoshiro256(uint64(20+c))
			for i := uint64(0); i < ops; i++ {
				v := uint64(c+1)<<40 | i
				h.EnqueuePriority(r.Next()>>16, v)
				in[c].add(v)
				b := h.Buffered()
				if it, ok := h.Dequeue(); ok {
					out[c].add(it.Value)
				}
				if h.Buffered() == b-1 {
					// Only takeOwn, or the sweep after 2·m fruitless draws
					// (never with this prefill), shrinks the buffer.
					owns[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	for _, h := range hs {
		h.Flush()
		h.ReturnPrefetched()
	}
	for it, ok := hs[0].Dequeue(); ok; it, ok = hs[0].Dequeue() {
		out[handles].add(it.Value)
	}
	var tin, tout tally
	for c := range in {
		tin.merge(in[c])
		tout.merge(out[c])
	}
	total := 0
	for _, n := range owns {
		total += n
	}
	if tin != tout {
		t.Fatalf("enqueued %+v but dequeued and drained %+v", tin, tout)
	}
	if total == 0 {
		t.Fatal("no dequeue took its own buffered key")
	}
	t.Logf("%d of %d dequeues took the handle's own key", total, handles*ops)
}

// tally is the count, sum and xor of a set of values, the conservation
// fingerprint the benchmark's lib-queue check compares.
type tally struct{ n, sum, xor uint64 }

func (t *tally) add(v uint64)  { t.n++; t.sum += v; t.xor ^= v }
func (t *tally) merge(o tally) { t.n += o.n; t.sum += o.sum; t.xor ^= o.xor }
