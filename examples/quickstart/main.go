// Quickstart: a scalable approximate counter in ten lines.
//
// Eight goroutines hammer a MultiCounter with 64 shards; the main goroutine
// then compares an approximate read against the exact total and the
// theoretical deviation envelope.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	"repro/dlz"
)

func main() {
	const (
		workers   = 8
		perWorker = 200_000
		shards    = 64 // m; keep m >= C * workers for the paper's guarantee
	)
	// m is fixed at construction.
	mc := dlz.NewMultiCounter(shards)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			h := mc.NewHandle(uint64(id) + 1) // one handle (and seed) per goroutine
			for i := 0; i < perWorker; i++ {
				h.Increment()
			}
		}(w)
	}
	wg.Wait()

	reader := mc.NewHandle(999)
	approx := reader.Read()
	exact := mc.Exact()
	gap := mc.Gap()

	fmt.Printf("exact count:        %d\n", exact)
	fmt.Printf("approximate read:   %d\n", approx)
	diff := int64(approx) - int64(exact)
	if diff < 0 {
		diff = -diff
	}
	fmt.Printf("absolute deviation: %d\n", diff)
	fmt.Printf("max-min shard gap:  %d (Theorem 6.1 keeps this O(log m))\n", gap)
	fmt.Printf("deviation bound:    m * gap = %d\n", uint64(shards)*gap)
	if uint64(diff) > uint64(shards)*gap {
		fmt.Println("WARNING: deviation exceeded m*gap — this should not happen at quiescence")
	}
}
