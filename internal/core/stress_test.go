package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stressDuration boxes each race-detector stress run. The full suite sweeps
// several configurations; keeping each box short keeps `go test -race ./...`
// under the ISSUE's two-minute budget, and testing.Short() shrinks it
// further for quick iteration.
func stressDuration() time.Duration {
	if testing.Short() {
		return 20 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// stressWorkers oversubscribes the machine slightly so the race detector
// sees real interleaving even on small CPU counts.
func stressWorkers() int {
	w := 2 * runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	return w
}

// TestStressMultiQueueStickyBatched hammers the sticky/batched MultiQueue
// fast path from concurrently enqueueing and dequeueing goroutines, under
// every knob combination, and then audits conservation: every value that
// went in is either consumed, still prefetched by a worker, or drained at
// quiescence — exactly once.
func TestStressMultiQueueStickyBatched(t *testing.T) {
	for _, g := range stickyBatchGrid {
		g := g
		t.Run(fmt.Sprintf("s%d/k%d/a0", g.stick, g.batch), func(t *testing.T) {
			workers := stressWorkers()
			q := NewMultiQueue(MultiQueueConfig{
				Topology: Topology{InitialM: 2 * workers}, Seed: 41,
				Stickiness: g.stick, Batch: g.batch,
			})
			var stop atomic.Bool
			var next atomic.Uint64 // unique value source across workers
			handles := make([]*MQHandle, workers)
			outs := make([][]uint64, workers)
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					h := q.NewHandle(uint64(w) + 1)
					handles[w] = h
					for !stop.Load() {
						h.Enqueue(next.Add(1))
						if it, ok := h.Dequeue(); ok {
							outs[w] = append(outs[w], it.Value)
						}
					}
				}(w)
			}
			time.Sleep(stressDuration())
			stop.Store(true)
			wg.Wait()

			seen := make(map[uint64]bool, next.Load())
			record := func(v uint64) {
				if seen[v] {
					t.Fatalf("value %d observed twice", v)
				}
				seen[v] = true
			}
			for _, run := range outs {
				for _, v := range run {
					record(v)
				}
			}
			for _, h := range handles {
				for h.Prefetched() > 0 {
					it, _ := h.Dequeue()
					record(it.Value)
				}
				h.Flush()
			}
			drainer := q.NewHandle(9999)
			for {
				it, ok := drainer.Dequeue()
				if !ok {
					break
				}
				record(it.Value)
			}
			if got, want := uint64(len(seen)), next.Load(); got != want {
				t.Fatalf("accounted %d values, want %d", got, want)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after drain", q.Len())
			}
		})
	}
}

// TestStressMultiQueueMixedOps exercises both dequeue variants (Dequeue,
// TryDequeue) concurrently against batched enqueues — the variants
// share the prefetch buffer, so the race detector must see a consistent
// handle-local protocol.
func TestStressMultiQueueMixedOps(t *testing.T) {
	workers := stressWorkers()
	q := NewMultiQueue(MultiQueueConfig{
		Topology: Topology{InitialM: 2 * workers}, Seed: 43, Stickiness: 8, Batch: 8,
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle(uint64(w) + 1)
			var n uint64
			for !stop.Load() {
				h.Enqueue(n)
				n++
				switch n % 3 {
				case 0, 1:
					h.Dequeue()
				default:
					h.TryDequeue(8)
				}
			}
		}(w)
	}
	time.Sleep(stressDuration())
	stop.Store(true)
	wg.Wait()
}

// TestStressMultiCounterStickyBatched hammers the counter's amortised fast
// path from concurrent handles across the Choices × Stickiness × Batch grid
// and audits conservation at quiescence: published weight plus each handle's
// remaining buffer must equal the number of completed increments exactly.
func TestStressMultiCounterStickyBatched(t *testing.T) {
	for _, g := range counterGrid {
		g := g
		t.Run(fmt.Sprintf("d%d/s%d/k%d/a0", g.d, g.stick, g.batch), func(t *testing.T) {
			workers := stressWorkers()
			mc := NewMultiCounterConfig(MultiCounterConfig{
				Topology: Topology{InitialM: 8 * workers}, Choices: g.d,
				Stickiness: g.stick, Batch: g.batch,
			})
			var stop atomic.Bool
			var done atomic.Uint64
			handles := make([]*Handle, workers)
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					h := mc.NewHandle(uint64(w) + 1)
					handles[w] = h
					var n uint64
					for !stop.Load() {
						h.Increment()
						n++
						if n%64 == 0 {
							h.Read()
						}
					}
					done.Add(n)
				}(w)
			}
			time.Sleep(stressDuration())
			stop.Store(true)
			wg.Wait()
			for _, h := range handles {
				h.Flush()
			}
			if got, want := mc.Exact(), done.Load(); got != want {
				t.Fatalf("Exact = %d after flush, want %d completed increments", got, want)
			}
		})
	}
}

// TestStressMultiCounter hammers the MultiCounter's increment/add/read paths
// and checks the exact sum at quiescence: every completed increment must be
// visible.
func TestStressMultiCounter(t *testing.T) {
	workers := stressWorkers()
	mc := NewMultiCounter(8 * workers)
	var stop atomic.Bool
	var done atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := mc.NewHandle(uint64(w) + 1)
			var n uint64
			for !stop.Load() {
				h.Increment()
				n++
				if n%64 == 0 {
					h.Read()
				}
			}
			done.Add(n)
		}(w)
	}
	time.Sleep(stressDuration())
	stop.Store(true)
	wg.Wait()
	if got, want := mc.Exact(), done.Load(); got != want {
		t.Fatalf("Exact() = %d, want %d completed increments", got, want)
	}
}
