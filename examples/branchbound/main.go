// Branchbound: parallel best-first branch-and-bound over a MultiQueue —
// the application domain (Karp & Zhang's parallel branch-and-bound) that the
// paper's related work traces relaxed priority scheduling back to.
//
// The instance is a 0/1 knapsack. Nodes are partial decisions; the queue
// orders them by an optimistic upper bound (best-first), inverted into a
// min-priority because the MultiQueue dequeues small priorities first.
// Workers expand nodes, prune against the best complete solution found so
// far (an atomic), and push children. The *relaxation* means a worker may
// expand a node that is not the globally best-bounded one — which costs
// wasted expansions, never correctness: the search is exhaustive modulo
// sound pruning, so the final answer must equal the exact DP optimum.
//
// Run with:
//
//	go run ./examples/branchbound
package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/dlz"
	"repro/internal/rng"
)

type item struct {
	weight, value int64
}

// instance generates a random knapsack instance with correlated weights and
// values (the classic hard-ish family).
func instance(n int, seed uint64) ([]item, int64) {
	r := rng.NewXoshiro256(seed)
	items := make([]item, n)
	var total int64
	for i := range items {
		w := int64(r.Uint64n(900)) + 100
		items[i] = item{weight: w, value: w + int64(r.Uint64n(200))}
		total += w
	}
	return items, total / 2
}

// dpOptimum is the exact reference (O(n·W) dynamic program).
func dpOptimum(items []item, cap int64) int64 {
	best := make([]int64, cap+1)
	for _, it := range items {
		for w := cap; w >= it.weight; w-- {
			if v := best[w-it.weight] + it.value; v > best[w] {
				best[w] = v
			}
		}
	}
	return best[cap]
}

// node is a packed partial solution: next item index, used weight, value so
// far. Packed into the queue's 64-bit payload via an arena.
type node struct {
	idx    int32
	weight int64
	value  int64
}

// upperBound is the fractional-knapsack relaxation for a node, assuming
// items are sorted by value density.
func upperBound(items []item, cap int64, nd node) int64 {
	ub := nd.value
	w := nd.weight
	for i := int(nd.idx); i < len(items) && w < cap; i++ {
		it := items[i]
		if w+it.weight <= cap {
			w += it.weight
			ub += it.value
		} else {
			// Fractional fill.
			ub += it.value * (cap - w) / it.weight
			break
		}
	}
	return ub
}

func main() {
	const nItems = 48
	items, cap := instance(nItems, 7)
	// Best-first needs density order for tight fractional bounds.
	sort.Slice(items, func(a, b int) bool {
		return items[a].value*items[b].weight > items[b].value*items[a].weight
	})
	want := dpOptimum(items, cap)

	workers := runtime.GOMAXPROCS(0)
	q := dlz.NewMultiQueue(dlz.MultiQueueConfig{
		Topology: dlz.Topology{InitialM: 8 * workers},
		Seed:     3,
	})

	// Node arena: the queue carries 64-bit values, so nodes live in a
	// mutex-guarded grow-only arena and the queue carries indices.
	var arenaMu sync.Mutex
	arena := make([]node, 0, 1<<16)
	alloc := func(nd node) uint64 {
		arenaMu.Lock()
		arena = append(arena, nd)
		id := uint64(len(arena) - 1)
		arenaMu.Unlock()
		return id
	}
	get := func(id uint64) node {
		arenaMu.Lock()
		nd := arena[id]
		arenaMu.Unlock()
		return nd
	}

	var best atomic.Int64    // best complete value found
	var pending atomic.Int64 // nodes in flight
	var expanded, pruned atomic.Int64

	maxPrio := int64(1) << 40
	push := func(h *dlz.MQHandle, nd node) {
		ub := upperBound(items, cap, nd)
		if ub <= best.Load() {
			pruned.Add(1)
			return
		}
		pending.Add(1)
		h.EnqueuePriority(uint64(maxPrio-ub), alloc(nd))
	}

	seed := q.NewHandle(4)
	pending.Add(1)
	seed.EnqueuePriority(uint64(maxPrio), alloc(node{}))

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
					if it, ok = h.Dequeue(); !ok {
						if pending.Load() == 0 {
							return
						}
						continue
					}
				}
				nd := get(it.Value)
				expanded.Add(1)
				// Re-check the bound against the current best (it may have
				// improved since this node was pushed).
				if upperBound(items, cap, nd) <= best.Load() {
					pruned.Add(1)
					pending.Add(-1)
					continue
				}
				if int(nd.idx) == len(items) {
					for {
						cur := best.Load()
						if nd.value <= cur || best.CompareAndSwap(cur, nd.value) {
							break
						}
					}
					pending.Add(-1)
					continue
				}
				next := items[nd.idx]
				// Child 1: take the item (if it fits).
				if nd.weight+next.weight <= cap {
					push(h, node{idx: nd.idx + 1, weight: nd.weight + next.weight, value: nd.value + next.value})
				}
				// Child 2: skip the item.
				push(h, node{idx: nd.idx + 1, weight: nd.weight, value: nd.value})
				pending.Add(-1)
			}
		}(w)
	}
	wg.Wait()

	fmt.Printf("items: %d, capacity: %d, workers: %d\n", nItems, cap, workers)
	fmt.Printf("expanded: %d nodes, pruned: %d\n", expanded.Load(), pruned.Load())
	fmt.Printf("branch-and-bound optimum: %d\n", best.Load())
	fmt.Printf("dynamic-program optimum:  %d\n", want)
	if best.Load() != want {
		panic("branch-and-bound over the relaxed queue missed the optimum")
	}
	fmt.Println("OK: relaxed best-first search found the exact optimum")
}
