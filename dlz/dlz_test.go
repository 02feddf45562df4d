package dlz_test

import (
	"sync"
	"testing"

	"repro/dlz"
)

// The dlz tests exercise the public API exactly the way the README tells a
// downstream user to use it.

func TestMultiCounterPublicAPI(t *testing.T) {
	mc := dlz.NewMultiCounter(64)
	var wg sync.WaitGroup
	const workers, per = 4, 10_000
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			h := mc.NewHandle(uint64(id) + 1)
			for i := 0; i < per; i++ {
				h.Increment()
			}
		}(w)
	}
	wg.Wait()
	if mc.Exact() != workers*per {
		t.Fatalf("Exact = %d", mc.Exact())
	}
	h := mc.NewHandle(999)
	v := h.Read()
	diff := int64(v) - int64(workers*per)
	if diff < 0 {
		diff = -diff
	}
	if uint64(diff) > uint64(64)*mc.Gap()+64 {
		t.Fatalf("read %d deviates beyond m*gap from %d", v, workers*per)
	}
}

func TestMultiCounterChoicesOption(t *testing.T) {
	mc := dlz.NewMultiCounterConfig(dlz.MultiCounterConfig{Topology: dlz.Topology{InitialM: 16}, Choices: 4})
	if mc.Choices() != 4 {
		t.Fatalf("Choices = %d", mc.Choices())
	}
	h := mc.NewHandle(1)
	for i := 0; i < 1000; i++ {
		h.Increment()
	}
	if mc.Exact() != 1000 {
		t.Fatal("increments lost")
	}
}

func TestMultiCounterConfigPublicAPI(t *testing.T) {
	// The amortised fast-path knobs must be reachable through the public
	// config, and the batched contract (Flush before quiescent audits) must
	// hold end to end.
	mc := dlz.NewMultiCounterConfig(dlz.MultiCounterConfig{
		Topology: dlz.Topology{InitialM: 32}, Choices: 4, Stickiness: 8, Batch: 8,
	})
	if mc.Choices() != 4 || mc.Stickiness() != 8 || mc.Batch() != 8 {
		t.Fatalf("knobs not plumbed: d=%d s=%d k=%d", mc.Choices(), mc.Stickiness(), mc.Batch())
	}
	h := mc.NewHandle(1)
	const n = 1003 // not a multiple of the batch: Flush publishes a partial
	for i := 0; i < n; i++ {
		h.Increment()
	}
	if got := int(mc.Exact()) + h.Buffered(); got != n {
		t.Fatalf("Exact+Buffered = %d mid-run, want %d", got, n)
	}
	h.Flush()
	if h.Buffered() != 0 || h.BufferedWeight() != 0 {
		t.Fatal("buffer not empty after Flush")
	}
	if mc.Exact() != n {
		t.Fatalf("Exact = %d after Flush, want %d", mc.Exact(), n)
	}
}

func TestMultiQueueChoicesPublicAPI(t *testing.T) {
	// Choices above m clamp to m: Choices reports the d a run uses.
	for _, tc := range []struct{ m, d, want int }{{8, 4, 4}, {4, 8, 4}} {
		q := dlz.NewMultiQueue(dlz.MultiQueueConfig{Topology: dlz.Topology{InitialM: tc.m}, Seed: 11, Choices: tc.d})
		if q.Choices() != tc.want {
			t.Fatalf("m %d, Choices %d: Choices() = %d, want %d", tc.m, tc.d, q.Choices(), tc.want)
		}
		h := q.NewHandle(1)
		for v := uint64(0); v < 200; v++ {
			h.Enqueue(v)
		}
		drained := 0
		for {
			if _, ok := h.Dequeue(); !ok {
				break
			}
			drained++
		}
		if drained != 200 {
			t.Fatalf("m %d, Choices %d: drained %d", tc.m, tc.d, drained)
		}
	}
}

func TestMultiQueuePublicAPI(t *testing.T) {
	for _, cfg := range []dlz.MultiQueueConfig{
		{Topology: dlz.Topology{InitialM: 8}},
		{Topology: dlz.Topology{InitialM: 8}, Stickiness: 4, Batch: 4},
	} {
		q := dlz.NewMultiQueue(cfg)
		h := q.NewHandle(7)
		for v := uint64(0); v < 300; v++ {
			h.Enqueue(v)
		}
		drained := 0
		for {
			if _, ok := h.Dequeue(); !ok {
				break
			}
			drained++
		}
		if drained != 300 {
			t.Fatalf("drained %d", drained)
		}
	}
}

func TestMultiQueueStickyBatchedPublicAPI(t *testing.T) {
	// The sticky/batched fast-path knobs must be reachable through the
	// public config, and the batched contract (Flush before quiescent
	// audits) must hold end to end.
	q := dlz.NewMultiQueue(dlz.MultiQueueConfig{
		Topology: dlz.Topology{InitialM: 8}, Seed: 5, Stickiness: 8, Batch: 8,
	})
	if q.Stickiness() != 8 || q.Batch() != 8 {
		t.Fatalf("knobs not plumbed: stickiness=%d batch=%d", q.Stickiness(), q.Batch())
	}
	h := q.NewHandle(7)
	const n = 300
	for v := uint64(0); v < n; v++ {
		h.Enqueue(v)
	}
	h.Flush()
	if h.Buffered() != 0 {
		t.Fatalf("Buffered = %d after Flush", h.Buffered())
	}
	if q.Len() != n {
		t.Fatalf("Len = %d after Flush, want %d", q.Len(), n)
	}
	drainer := q.NewHandle(9)
	seen := map[uint64]bool{}
	for {
		it, ok := drainer.Dequeue()
		if !ok {
			break
		}
		if seen[it.Value] {
			t.Fatalf("value %d dequeued twice", it.Value)
		}
		seen[it.Value] = true
	}
	if len(seen) != n {
		t.Fatalf("drained %d, want %d", len(seen), n)
	}
}
