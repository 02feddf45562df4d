package core

import (
	"fmt"
	"runtime"
	"testing"
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
		runtime.KeepAlive(NewMultiQueue(MultiQueueConfig{Queues: m}))
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	if got > bound {
		t.Fatalf("NewMultiQueue at m = %d allocated %d B, want <= %d", m, got, bound)
	}
	t.Logf("NewMultiQueue at m = %d allocated %d B", m, got)
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
					Queues: 16, Stickiness: sk, Batch: sk,
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
				Counters: 16, Choices: c.d, Stickiness: c.s, Batch: c.k,
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
