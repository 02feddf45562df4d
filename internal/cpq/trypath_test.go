package cpq

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/rng"
)

// TestTryPathsAgainstHeldLock pins the contract of every try-operation under
// contention: with the lock held (LockForTest simulating
// a stalled or crashed holder) each try-path must refuse without mutating
// anything — dst unchanged, nothing inserted, nothing lost — and after
// release the exact multiset of offered items must be recoverable with no
// loss and no duplication.
func TestTryPathsAgainstHeldLock(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		q := newQueue(16)
		q.AddBatch([]heap.Item{{Priority: 4, Value: 40}, {Priority: 6, Value: 60}})

		if !q.LockForTest() {
			t.Fatal("could not take test lock")
		}
		wordBefore := q.ReadTop()

		if tryAddOne(q, 1, 10) {
			t.Fatal("one-item TryAddBatch succeeded against a held lock")
		}
		if q.TryAddBatch([]heap.Item{{Priority: 2, Value: 20}, {Priority: 3, Value: 30}}) {
			t.Fatal("TryAddBatch succeeded against a held lock")
		}
		if !q.TryAddBatch(nil) {
			t.Fatal("empty TryAddBatch must report true without the lock")
		}
		if _, _, acquired := tryDeleteOne(q); acquired {
			t.Fatal("TryDeleteMinUpTo(1) acquired a held lock")
		}
		sentinel := []heap.Item{{Priority: 99, Value: 990}}
		out, acquired := q.TryDeleteMinUpTo(8, sentinel)
		if acquired {
			t.Fatal("TryDeleteMinUpTo acquired a held lock")
		}
		if len(out) != 1 || out[0] != sentinel[0] {
			t.Fatalf("TryDeleteMinUpTo mutated dst under contention: %+v", out)
		}
		if q.ReadTop().minPrio() != 4 {
			t.Fatalf("contended try-paths mutated the cached top: min=%d", q.ReadTop().minPrio())
		}
		// Refused try-paths must not have touched the word at all: same
		// minimum, same publication sequence, no stray sentinel. A held
		// lock without mutating intent (a crashed holder) leaves the word
		// stable — the property the MultiQueue's empty scan trusts.
		if w := q.ReadTop(); w != wordBefore || w.InFlight() {
			t.Fatalf("contended try-paths moved the top word: %#x -> %#x", uint64(wordBefore), uint64(w))
		}

		q.UnlockForTest()

		// Len takes the queue lock, so audit it only after release.
		if q.Len() != 2 {
			t.Fatalf("contended try-paths mutated the queue: Len=%d", q.Len())
		}

		// Every refused insert is retried now; the queue must end up with
		// exactly the original plus the retried items, each once.
		if !tryAddOne(q, 1, 10) {
			t.Fatal("one-item TryAddBatch failed on a free lock")
		}
		if !q.TryAddBatch([]heap.Item{{Priority: 2, Value: 20}, {Priority: 3, Value: 30}}) {
			t.Fatal("TryAddBatch failed on a free lock")
		}
		got, acquired := q.TryDeleteMinUpTo(8, nil)
		if !acquired {
			t.Fatal("TryDeleteMinUpTo failed on a free lock")
		}
		want := []heap.Item{{Priority: 1, Value: 10}, {Priority: 2, Value: 20}, {Priority: 3, Value: 30}, {Priority: 4, Value: 40}, {Priority: 6, Value: 60}}
		if len(got) != len(want) {
			t.Fatalf("drained %d items, want %d: %+v", len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("drain[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// TestTryPathsConcurrentConservation hammers the try-paths while a lock
// holder stalls each queue on and off: writers that get refused keep their
// batch and retry, so at quiescence every offered item must be present in
// the drain exactly once — the no-loss/no-duplication property the
// MultiQueue's lock-avoiding dequeue depends on.
func TestTryPathsConcurrentConservation(t *testing.T) {
	q := newQueue(64)
	const writers, perWriter, drainers, k = 4, 500, 2, 4

	// The interloper repeatedly stalls the queue the way a descheduled
	// (or crashed-and-recovered) lock holder would, forcing the try-paths
	// down their refusal branch.
	stop := make(chan struct{})
	var interloperWG sync.WaitGroup
	interloperWG.Add(1)
	go func() {
		defer interloperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if q.LockForTest() {
				q.UnlockForTest()
			}
			// Yield so single-CPU runs interleave instead of starving
			// the writers behind this tight loop.
			runtime.Gosched()
		}
	}()

	var writersWG sync.WaitGroup
	writersWG.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writersWG.Done()
			r := rng.NewXoshiro256(uint64(w) + 31)
			batch := make([]heap.Item, 0, k)
			for i := 0; i < perWriter; i++ {
				v := uint64(w*perWriter + i)
				if i%2 == 0 {
					for !tryAddOne(q, r.Uint64n(1000), v) {
						runtime.Gosched()
					}
					continue
				}
				batch = append(batch, heap.Item{Priority: r.Uint64n(1000), Value: v})
				if len(batch) == k || i == perWriter-1 {
					for !q.TryAddBatch(batch) {
						runtime.Gosched()
					}
					batch = batch[:0]
				}
			}
		}(w)
	}

	// Concurrent try-drainers: refused attempts retry; a drainer exits
	// only after the writers are done and it observes the queue truly
	// empty under an acquired lock (once writers stop, the queue only
	// shrinks, so acquired-and-empty is a sound exit condition).
	doneCh := make(chan struct{})
	go func() {
		writersWG.Wait()
		close(doneCh)
	}()
	seen := make([]map[uint64]int, drainers)
	var drainWG sync.WaitGroup
	drainWG.Add(drainers)
	for c := 0; c < drainers; c++ {
		go func(c int) {
			defer drainWG.Done()
			local := map[uint64]int{}
			for {
				out, acquired := q.TryDeleteMinUpTo(k, nil)
				if acquired && len(out) > 0 {
					for _, it := range out {
						local[it.Value]++
					}
					continue
				}
				if acquired {
					select {
					case <-doneCh:
						seen[c] = local
						return
					default:
					}
				}
				runtime.Gosched()
			}
		}(c)
	}

	drainWG.Wait()
	close(stop)
	interloperWG.Wait()

	merged := map[uint64]int{}
	for _, m := range seen {
		for v, n := range m {
			merged[v] += n
		}
	}
	want := writers * perWriter
	if len(merged) != want {
		t.Fatalf("%d distinct values drained, want %d", len(merged), want)
	}
	for v, n := range merged {
		if n != 1 {
			t.Fatalf("value %d drained %d times", v, n)
		}
	}
}
