package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/dlin"
	"repro/internal/heap"
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

// TestDequeueServesOwnKeyBeforePrefetched pins the local-min rule on the
// prefetched run: after a refill prefetched a shard's 8 smallest keys, a key
// the handle buffers below the run's head is served before it, and a key
// above the head stays buffered while the head is served. Both Dequeue and
// TryDequeue follow the rule, and neither touches a shard.
func TestDequeueServesOwnKeyBeforePrefetched(t *testing.T) {
	for _, deq := range []struct {
		name string
		f    func(*MQHandle) (heap.Item, bool)
	}{
		{"Dequeue", (*MQHandle).Dequeue},
		{"TryDequeue", func(h *MQHandle) (heap.Item, bool) { return h.TryDequeue(1) }},
	} {
		t.Run(deq.name, func(t *testing.T) {
			for _, own := range []uint64{5, 5000} {
				q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Choices: 4, Batch: 8})
				p := q.NewHandle(1)
				for k := uint64(1000); k < 1064; k++ {
					p.EnqueuePriority(k, k)
				}
				p.Flush()
				h := q.NewHandle(2)
				if it, ok := deq.f(h); !ok || it.Priority != 1000 || h.Prefetched() != 7 {
					t.Fatalf("refill: %+v, %v with Prefetched %d; want 1000 and 7 prefetched", it, ok, h.Prefetched())
				}
				head := h.outBuf[h.outPos].Priority
				h.EnqueuePriority(own, own)
				n, st := q.Len(), q.Stats()
				it, ok := deq.f(h)
				want, buffered, prefetched := own, 0, 7
				if own > head {
					want, buffered, prefetched = head, 1, 6
				}
				if !ok || it.Priority != want || h.Buffered() != buffered || h.Prefetched() != prefetched {
					t.Fatalf("own key %d, head %d: got %+v, %v with Buffered %d, Prefetched %d; want %d, %d, %d",
						own, head, it, ok, h.Buffered(), h.Prefetched(), want, buffered, prefetched)
				}
				if q.Len() != n || q.Stats() != st {
					t.Fatalf("own key %d: Len %d (was %d), Stats %+v (was %+v); want no shard touched", own, q.Len(), n, q.Stats(), st)
				}
			}
		})
	}
}

// TestLocalMinRankPriorityMode pins what the local-min rule does to quality
// with several handles in priority mode, at the benchmark's lib-queue shape
// (m 64, s 16, k 8, d 2): one goroutine per handle alternates
// EnqueuePriority of uniform keys with Dequeue on a standing prefill, each
// pair under one shared mutex, so the interleaving varies from run to run
// but every rank is exact. A dequeue's rank is the number of logically
// enqueued keys below the returned one, buffered and prefetched ones
// included, counted over the pre-drawn keys' compressed positions. Serving
// prefetched runs ahead of smaller fresh keys averaged about 600 here; the
// mean must stay within the m·log m envelope, 384.
func TestLocalMinRankPriorityMode(t *testing.T) {
	const m, prefill, ops = 64, 1 << 16, 400_000
	for _, handles := range []int{2, 4} {
		t.Run(fmt.Sprintf("handles=%d", handles), func(t *testing.T) {
			r := rng.NewXoshiro256(uint64(handles))
			keys := make([]uint64, prefill+ops/2)
			for i := range keys {
				keys[i] = r.Next() >> 16
			}
			sorted := slices.Clone(keys)
			slices.Sort(sorted)
			f := dlin.NewFenwick(len(keys))
			enq := func(h *MQHandle, i int) {
				pos, _ := slices.BinarySearch(sorted, keys[i])
				h.EnqueuePriority(keys[i], uint64(pos+1))
				f.Add(pos+1, 1)
			}
			q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: m}, Stickiness: 16, Batch: 8})
			p := q.NewHandle(1)
			for i := 0; i < prefill; i++ {
				enq(p, i)
			}
			p.Close()
			hs := make([]*MQHandle, handles)
			for c := range hs {
				hs[c] = q.NewHandle(uint64(2 + c))
			}
			var (
				mu                sync.Mutex
				wg                sync.WaitGroup
				next              = prefill
				sum, worst, empty int64
			)
			for _, h := range hs {
				wg.Add(1)
				go func(h *MQHandle) {
					defer wg.Done()
					mu.Lock()
					defer mu.Unlock()
					for ; next < len(keys); next++ {
						enq(h, next)
						it, ok := h.Dequeue()
						if !ok {
							empty++
							continue
						}
						pos := int(it.Value)
						rank := f.PrefixSum(pos - 1)
						f.Add(pos, -1)
						sum += rank
						worst = max(worst, rank)
						mu.Unlock()
						mu.Lock()
					}
				}(h)
			}
			wg.Wait()
			if empty > 0 {
				t.Fatalf("%d dequeues found the queue empty", empty)
			}
			mean := float64(sum) / float64(ops/2)
			t.Logf("%d handles: mean rank %.1f, max %d over %d dequeues", handles, mean, worst, ops/2)
			if env := dlin.Envelope(m); mean > env {
				t.Fatalf("%d handles: mean rank %.1f above the m·log m envelope %.0f", handles, mean, env)
			}
		})
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
					// Only a dequeue that takes the handle's own key, from
					// the prefetched run's place or a refill's, or the sweep
					// after 2·m fruitless draws (never with this prefill),
					// shrinks the buffer.
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
