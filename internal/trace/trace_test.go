package trace

import (
	"sync"
	"testing"
)

func TestStampsMonotone(t *testing.T) {
	r := NewRecorder(1, 4)
	prev := r.Stamp()
	for i := 0; i < 100; i++ {
		s := r.Stamp()
		if s <= prev {
			t.Fatal("stamps not strictly increasing")
		}
		prev = s
	}
}

func TestRecordAndMergeSorted(t *testing.T) {
	r := NewRecorder(2, 8)
	l0, l1 := r.Log(0), r.Log(1)
	// Interleave stamps across logs.
	for i := 0; i < 10; i++ {
		s := r.Stamp()
		l0.Record(Event{Kind: KindInc, Start: s, Lin: s, End: s})
		s = r.Stamp()
		l1.Record(Event{Kind: KindInc, Start: s, Lin: s, End: s})
	}
	if len(l0.events) != 10 || len(l1.events) != 10 {
		t.Fatalf("log lengths %d/%d", len(l0.events), len(l1.events))
	}
	merged := r.Merge()
	if len(merged) != 20 {
		t.Fatalf("merged %d events", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Lin < merged[i-1].Lin {
			t.Fatal("merge not sorted by Lin")
		}
	}
	// Thread ids filled in.
	for _, e := range merged {
		if e.Th != 0 && e.Th != 1 {
			t.Fatalf("bad thread id %d", e.Th)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	const threads, per = 4, 5000
	r := NewRecorder(threads, per)
	var wg sync.WaitGroup
	wg.Add(threads)
	for th := 0; th < threads; th++ {
		go func(th int) {
			defer wg.Done()
			log := r.Log(th)
			for i := 0; i < per; i++ {
				start := r.Stamp()
				lin := r.Stamp()
				log.Record(Event{Kind: KindInc, Start: start, Lin: lin, End: lin})
			}
		}(th)
	}
	wg.Wait()
	merged := r.Merge()
	if len(merged) != threads*per {
		t.Fatalf("merged %d, want %d", len(merged), threads*per)
	}
	seen := map[uint64]bool{}
	for i := 1; i < len(merged); i++ {
		if merged[i].Lin < merged[i-1].Lin {
			t.Fatal("merge not sorted")
		}
		if seen[merged[i].Lin] {
			t.Fatal("duplicate lin stamp")
		}
		seen[merged[i].Lin] = true
		if merged[i].Start > merged[i].Lin {
			t.Fatal("start after lin")
		}
	}
}
