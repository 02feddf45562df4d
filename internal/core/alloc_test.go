package core

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/heap"
	"repro/internal/rng"
)

// TestNewMultiQueueFootprint bounds what an empty MultiQueue costs: at
// m = 64, construction allocates at most 32 KiB — the shard blocks (8 KiB,
// allocated twice when the first array misses its alignment) and a few small
// objects — because an empty shard holds no element storage. A per-shard
// preallocation is multiplied by m here and by every tenant in dlzd.
func TestNewMultiQueueFootprint(t *testing.T) {
	const m, runs, bound = 64, 20, 32 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runtime.KeepAlive(NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: m}}))
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	if got > bound {
		t.Fatalf("NewMultiQueue at m = %d allocated %d B, want <= %d", m, got, bound)
	}
	t.Logf("NewMultiQueue at m = %d allocated %d B", m, got)
}

// TestMultiQueuePrefillFootprint holds what a prefill allocates to twice the
// items' bytes plus 64 KiB: one handle at m = 64, s = 16, k = 8 makes 2^18
// uniform EnqueuePriority calls, so each shard takes 4 k items by inserts
// alone, as lib-queue's standing content is built. A shard's run is chunks
// that hold each item once and its pending heap is flushed before it outgrows
// a quarter of the run; a pending array that took the whole fill and was
// regrown by append to hold it allocated 3.8 times the items' bytes.
func TestMultiQueuePrefillFootprint(t *testing.T) {
	const items = 1 << 18
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 64}, Stickiness: 16, Batch: 8})
	h, r := q.NewHandle(6), rng.NewXoshiro256(6)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < items; i++ {
		h.EnqueuePriority(r.Next()>>16, i)
	}
	runtime.ReadMemStats(&after)
	itemBytes := uint64(items * unsafe.Sizeof(heap.Item{}))
	got := after.TotalAlloc - before.TotalAlloc
	if got > 2*itemBytes+64<<10 {
		t.Fatalf("a prefill of %d items allocated %d B, %.2f times their %d B; want <= 2 times + 64 KiB",
			items, got, float64(got)/float64(itemBytes), itemBytes)
	}
	t.Logf("a prefill of %d items allocated %.2f times their bytes", items, float64(got)/float64(itemBytes))
	if h.Flush(); q.Len() != items {
		t.Fatalf("Len = %d after the prefill, want %d", q.Len(), items)
	}
}

// TestMQHandleHotPathZeroAlloc pins the MultiQueue hot path at zero
// allocations per operation: after warm-up, an enqueue+dequeue pair must
// reuse the handle's fixed-capacity batch and prefetch buffers and the
// per-queue heap's arrays grown during warm-up — no growth anywhere — at
// every (stickiness, batch) setting from the per-op path (1, 1) to (16, 16),
// not only the headline (8, 8).
func TestMQHandleHotPathZeroAlloc(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		for _, sk := range []int{1, 4, 8, 16} {
			t.Run(fmt.Sprintf("s=%d,k=%d", sk, sk), func(t *testing.T) {
				q := NewMultiQueue(MultiQueueConfig{
					Topology: Topology{InitialM: 16}, Stickiness: sk, Batch: sk,
				})
				h := q.NewHandle(4)
				for i := 0; i < 4096; i++ {
					h.Enqueue(uint64(i))
					h.Dequeue()
				}
				allocs := testing.AllocsPerRun(2000, func() {
					h.Enqueue(1)
					h.Dequeue()
				})
				if allocs != 0 {
					t.Fatalf("steady-state enqueue+dequeue allocated %.2f objects/op, want 0", allocs)
				}
			})
		}
	})
	// Random priorities, as in the benchmark's lib-queue loop: in the steady
	// state most refills take the handle's own buffered key.
	t.Run("own-buffer", func(t *testing.T) {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 16}, Stickiness: 16, Batch: 8})
		h, r := q.NewHandle(4), rng.NewXoshiro256(4)
		step := func() {
			h.EnqueuePriority(r.Next()>>16, 1)
			h.Dequeue()
		}
		for i := 0; i < 4096; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Fatalf("steady-state own-buffer enqueue+dequeue allocated %.2f objects/op, want 0", allocs)
		}
	})
	// The Section 7 loop over a standing prefill of 4 k items a shard, 16
	// chunks of run each: pops free chunks and later merges must reuse them.
	t.Run("prefilled", func(t *testing.T) {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 16}, Stickiness: 16, Batch: 8})
		h, r := q.NewHandle(4), rng.NewXoshiro256(4)
		for i := 0; i < 1<<16; i++ {
			h.EnqueuePriority(r.Next()>>16, 1)
		}
		step := func() {
			h.EnqueuePriority(r.Next()>>16, 1)
			h.Dequeue()
		}
		for i := 0; i < 4096; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Fatalf("steady-state enqueue+dequeue over a prefill allocated %.2f objects/op, want 0", allocs)
		}
	})
	// Every dequeue is served by the local-min rule from the prefetched run's
	// place: each fresh key is below every stored one, so the run never moves.
	t.Run("local-min", func(t *testing.T) {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 16}, Stickiness: 16, Batch: 8})
		h := q.NewHandle(4)
		for i := uint64(0); i < 4096; i++ {
			h.EnqueuePriority(1<<40+i, 1)
		}
		h.Flush()
		h.Dequeue()
		key, run := uint64(1<<40), h.Prefetched()
		allocs := testing.AllocsPerRun(2000, func() {
			key--
			h.EnqueuePriority(key, 1)
			h.Dequeue()
		})
		if allocs != 0 || h.Prefetched() != run || h.Buffered() != 0 {
			t.Fatalf("local-min enqueue+dequeue allocated %.2f objects/op with Prefetched %d -> %d, Buffered %d; want 0, an unmoved run, 0",
				allocs, run, h.Prefetched(), h.Buffered())
		}
	})
}

// TestMCHandleHotPathZeroAlloc pins the MultiCounter hot path the same way:
// a steady-state increment buffers locally and publishes through the sticky
// sampler's preallocated candidate set, allocating nothing — with and
// without stickiness, with and without batching, and at d = 4. Minting a
// handle costs two allocations, the handle and its sampler's candidate set:
// the generator lives inside the handle.
func TestMCHandleHotPathZeroAlloc(t *testing.T) {
	mc := NewMultiCounter(16)
	if allocs := testing.AllocsPerRun(100, func() { mc.NewHandle(5) }); allocs != 2 {
		t.Fatalf("NewHandle allocated %.0f objects, want 2", allocs)
	}
	for _, c := range []struct{ d, s, k int }{
		{2, 1, 1}, {2, 8, 1}, {2, 1, 8}, {2, 8, 8}, {4, 8, 8}, {2, 16, 16},
	} {
		t.Run(fmt.Sprintf("d=%d,s=%d,k=%d", c.d, c.s, c.k), func(t *testing.T) {
			mc := NewMultiCounterConfig(MultiCounterConfig{
				Topology: Topology{InitialM: 16}, Choices: c.d, Stickiness: c.s, Batch: c.k,
			})
			h := mc.NewHandle(5)
			for i := 0; i < 4096; i++ {
				h.Increment()
			}
			allocs := testing.AllocsPerRun(2000, func() { h.Increment() })
			if allocs != 0 {
				t.Fatalf("steady-state increment allocated %.2f objects/op, want 0", allocs)
			}
		})
	}
}
