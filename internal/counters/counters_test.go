package counters

import (
	"sync"
	"testing"
)

func TestExactSequential(t *testing.T) {
	e := NewExact()
	if e.Read() != 0 {
		t.Fatal("fresh counter not zero")
	}
	if got := e.Inc(); got != 0 {
		t.Fatalf("first Inc returned %d, want 0 (fetch-and-increment)", got)
	}
	if got := e.Inc(); got != 1 {
		t.Fatalf("second Inc returned %d, want 1", got)
	}
	if e.Read() != 2 {
		t.Fatalf("Read = %d, want 2", e.Read())
	}
}

func TestExactConcurrent(t *testing.T) {
	e := NewExact()
	const workers, per = 8, 20000
	seen := make([]map[uint64]bool, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		seen[w] = make(map[uint64]bool, per)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seen[w][e.Inc()] = true
			}
		}(w)
	}
	wg.Wait()
	if e.Read() != workers*per {
		t.Fatalf("total %d, want %d", e.Read(), workers*per)
	}
	// Fetch-and-increment returns must be globally unique.
	all := make(map[uint64]bool, workers*per)
	for _, m := range seen {
		for v := range m {
			if all[v] {
				t.Fatalf("duplicate fetch-and-increment return %d", v)
			}
			all[v] = true
		}
	}
}
