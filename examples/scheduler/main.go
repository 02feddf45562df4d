// Scheduler: parallel single-source shortest paths with a MultiQueue used as
// a relaxed concurrent priority scheduler — the workload class (graph
// processing) that motivates relaxed priority queues in the paper's
// introduction.
//
// The algorithm is label-correcting Dijkstra: workers pop (distance, node)
// entries from the relaxed queue, skip stale ones, relax outgoing edges with
// a CAS on the distance array, and push improved entries. Correctness does
// not depend on the queue's exactness — every pushed entry is eventually
// popped — but *work efficiency* does: the relaxation makes some pops stale
// (their distance has already been improved), and the O(m log m) rank bound
// keeps that waste small. The example verifies the parallel distances
// against a sequential Dijkstra and reports the wasted-pop rate.
//
// Run with:
//
//	go run ./examples/scheduler
package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/dlz"
	"repro/internal/heap"
	"repro/internal/rng"
)

type edge struct {
	to uint32
	w  uint32
}

// randomGraph builds a connected directed graph: a random spine 0→1→…→n-1
// plus extra uniformly random edges, with weights in [1, maxW].
func randomGraph(n, extraEdges int, maxW uint32, seed uint64) [][]edge {
	r := rng.NewXoshiro256(seed)
	adj := make([][]edge, n)
	for v := 1; v < n; v++ {
		adj[v-1] = append(adj[v-1], edge{to: uint32(v), w: uint32(r.Uint64n(uint64(maxW))) + 1})
	}
	for i := 0; i < extraEdges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		adj[u] = append(adj[u], edge{to: uint32(v), w: uint32(r.Uint64n(uint64(maxW))) + 1})
	}
	return adj
}

// sequentialDijkstra is the exact reference.
func sequentialDijkstra(adj [][]edge, src int) []uint64 {
	dist := make([]uint64, len(adj))
	for i := range dist {
		dist[i] = math.MaxUint64
	}
	dist[src] = 0
	pq := heap.NewBinary(len(adj))
	pq.Push(heap.Item{Priority: 0, Value: uint64(src)})
	for {
		it, ok := pq.Pop()
		if !ok {
			break
		}
		u := int(it.Value)
		if it.Priority > dist[u] {
			continue
		}
		for _, e := range adj[u] {
			if nd := dist[u] + uint64(e.w); nd < dist[e.to] {
				dist[e.to] = nd
				pq.Push(heap.Item{Priority: nd, Value: uint64(e.to)})
			}
		}
	}
	return dist
}

func main() {
	const (
		n          = 100_000
		extraEdges = 400_000
		maxW       = 1000
		src        = 0
	)
	workers := runtime.GOMAXPROCS(0)
	adj := randomGraph(n, extraEdges, maxW, 1)

	// Parallel label-correcting SSSP over the relaxed queue.
	dist := make([]atomic.Uint64, n)
	for i := range dist {
		dist[i].Store(math.MaxUint64)
	}
	dist[src].Store(0)

	q := dlz.NewMultiQueue(dlz.MultiQueueConfig{
		Topology: dlz.Topology{InitialM: 8 * workers},
		Seed:     2,
	})
	var pending atomic.Int64
	var pops, stale atomic.Int64

	seedQ := q.NewHandle(3)
	pending.Add(1)
	seedQ.EnqueuePriority(0, uint64(src))

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			h := q.NewHandle(uint64(id) + 10)
			for {
				it, ok := h.TryDequeue(8)
				if !ok {
					if pending.Load() == 0 {
						return
					}
					it, ok = h.Dequeue()
					if !ok {
						if pending.Load() == 0 {
							return
						}
						continue
					}
				}
				pops.Add(1)
				u := int(it.Value & 0xffffffff)
				d := it.Priority
				if d > dist[u].Load() {
					stale.Add(1)
					pending.Add(-1)
					continue
				}
				for _, e := range adj[u] {
					nd := d + uint64(e.w)
					for {
						cur := dist[e.to].Load()
						if nd >= cur {
							break
						}
						if dist[e.to].CompareAndSwap(cur, nd) {
							pending.Add(1)
							h.EnqueuePriority(nd, uint64(e.to))
							break
						}
					}
				}
				pending.Add(-1)
			}
		}(w)
	}
	wg.Wait()

	// Verify against the exact sequential result.
	ref := sequentialDijkstra(adj, src)
	mismatches := 0
	for v := 0; v < n; v++ {
		if dist[v].Load() != ref[v] {
			mismatches++
		}
	}
	fmt.Printf("nodes: %d, edges: ~%d, workers: %d\n", n, n-1+extraEdges, workers)
	fmt.Printf("pops: %d (stale/wasted: %d = %.2f%%)\n",
		pops.Load(), stale.Load(), 100*float64(stale.Load())/float64(pops.Load()))
	fmt.Printf("distance mismatches vs sequential Dijkstra: %d\n", mismatches)
	if mismatches != 0 {
		panic("relaxed SSSP produced wrong distances")
	}
	fmt.Println("OK: relaxed scheduling preserved exact shortest paths")
}
