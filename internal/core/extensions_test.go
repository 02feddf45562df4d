package core

import (
	"math"
	"sync"
	"testing"
)

// Tests for the paper-extension features: weighted increments (Add) and
// d-choice dequeues (MultiQueueConfig.Choices).

func TestAddPreservesExactSum(t *testing.T) {
	mc := NewMultiCounter(16)
	h := mc.NewHandle(1)
	var want uint64
	for i := uint64(1); i <= 1000; i++ {
		delta := i % 7
		h.Add(delta)
		want += delta
	}
	if mc.Exact() != want {
		t.Fatalf("Exact = %d, want %d", mc.Exact(), want)
	}
}

func TestAddConcurrentExactSum(t *testing.T) {
	mc := NewMultiCounter(64)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := mc.NewHandle(uint64(w) + 1)
			for i := 0; i < per; i++ {
				h.Add(3)
			}
		}(w)
	}
	wg.Wait()
	if mc.Exact() != 3*workers*per {
		t.Fatalf("Exact = %d, want %d", mc.Exact(), 3*workers*per)
	}
}

func TestAddBoundedWeightsKeepGapSmall(t *testing.T) {
	// Weighted two-choice with bounded weights keeps the gap O(w_max log m).
	m := 64
	mc := NewMultiCounter(m)
	h := mc.NewHandle(2)
	for i := 0; i < 100000; i++ {
		h.Add(uint64(i%4) + 1) // weights 1..4
	}
	if g := float64(mc.Gap()); g > 4*(2*math.Log2(float64(m))+4) {
		t.Fatalf("weighted gap %v too large", g)
	}
}

func TestAddSingleChoiceDiverges(t *testing.T) {
	m := 64
	d1, d2 := newMCd(m, 1), newMCd(m, 2)
	h1, h2 := d1.NewHandle(3), d2.NewHandle(3)
	for i := 0; i < 100000; i++ {
		h1.Add(2)
		h2.Add(2)
	}
	if d1.Gap() < 3*d2.Gap() {
		t.Fatalf("weighted d=1 gap %d not clearly above d=2 gap %d", d1.Gap(), d2.Gap())
	}
}

// newMQd returns a per-op MultiQueue over m queues with d dequeue choices.
func newMQd(m, d int) *MultiQueue {
	return NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: m}, Choices: d})
}

func TestDequeueDDrains(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		q := newMQd(8, d)
		h := q.NewHandle(4)
		for v := uint64(0); v < 500; v++ {
			h.Enqueue(v)
		}
		seen := map[uint64]bool{}
		for {
			it, ok := h.Dequeue()
			if !ok {
				break
			}
			if seen[it.Value] {
				t.Fatalf("d=%d: value %d dequeued twice", d, it.Value)
			}
			seen[it.Value] = true
		}
		if len(seen) != 500 {
			t.Fatalf("d=%d: drained %d", d, len(seen))
		}
	}
}

// TestDequeueDRankImprovesWithD: more choices, lower dequeue rank. Measured
// on the steady-state single-threaded process with a persistent buffer.
func TestDequeueDRankImprovesWithD(t *testing.T) {
	meanRank := func(d int) float64 {
		q := newMQd(32, d)
		h := q.NewHandle(6)
		const buffer, ops = 2048, 10000
		for i := 0; i < buffer; i++ {
			h.Enqueue(0)
		}
		// Estimate rank via the priority distance from the global minimum
		// proxy: track the sum of (dequeued priority - min enqueued not yet
		// dequeued) is complex; instead compare mean dequeued priority
		// *age*: lower d leaves old elements behind, raising the average
		// age of survivors. Simpler robust proxy: run pairs and measure the
		// mean priority of dequeued items; better policies dequeue older
		// (smaller) priorities sooner, so the running mean is lower.
		var sum float64
		for i := 0; i < ops; i++ {
			h.Enqueue(0)
			it, ok := h.Dequeue()
			if !ok {
				t.Fatal("dequeue failed")
			}
			sum += float64(it.Priority)
		}
		return sum / ops
	}
	r1, r2, r4 := meanRank(1), meanRank(2), meanRank(4)
	if !(r2 < r1) {
		t.Fatalf("two-choice mean dequeued priority %v not below single-choice %v", r2, r1)
	}
	if !(r4 <= r2+1) {
		t.Fatalf("four-choice %v worse than two-choice %v", r4, r2)
	}
}
