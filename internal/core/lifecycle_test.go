package core

import (
	"testing"
)

// TestHandleDropWithoutFlushDetectable pins the abandoned-handle bug the
// Close contract fixes: a batched counter handle that is dropped without
// Flush holds increments no audit can see — but the loss is now detectable
// (Buffered/BufferedWeight stay nonzero) and Close drains it to zero.
func TestHandleDropWithoutFlushDetectable(t *testing.T) {
	mc := NewMultiCounterConfig(MultiCounterConfig{Topology: Topology{InitialM: 8}, Batch: 16})
	h := mc.NewHandle(1)
	for i := 0; i < 10; i++ {
		h.Add(2)
	}
	// Simulated abandon: the handle goes out of use with a partial batch.
	if h.Buffered() != 10 || h.BufferedWeight() != 20 {
		t.Fatalf("abandoned handle should hold its partial batch: Buffered=%d BufferedWeight=%d",
			h.Buffered(), h.BufferedWeight())
	}
	if got := mc.Exact(); got != 0 {
		t.Fatalf("buffered increments leaked into Exact: %d", got)
	}
	h.Close()
	if h.Buffered() != 0 || h.BufferedWeight() != 0 {
		t.Fatalf("Close must drain the buffer: Buffered=%d BufferedWeight=%d",
			h.Buffered(), h.BufferedWeight())
	}
	if got := mc.Exact(); got != 20 {
		t.Fatalf("Close must publish the buffered weight: Exact=%d want 20", got)
	}
	h.Close() // idempotent
	if got := mc.Exact(); got != 20 {
		t.Fatalf("second Close must be a no-op: Exact=%d want 20", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a closed Handle must panic")
		}
	}()
	h.Add(1)
}

// TestMQHandleCloseDrainsBuffersAndPrefetch verifies the queue side of the
// Close contract: buffered inserts are flushed, unconsumed prefetched
// elements are returned to the shared structure, and the element count is
// conserved exactly.
func TestMQHandleCloseDrainsBuffersAndPrefetch(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Batch: 8, Stickiness: 8})
	h := q.NewHandle(1)
	const n = 40
	for i := 0; i < n; i++ {
		h.Enqueue(uint64(i))
	}
	// Partial batch still buffered plus a prefetch run parked: the two
	// places an abandoned handle loses elements.
	h.Enqueue(100)
	consumed := 0
	if _, ok := h.Dequeue(); ok {
		consumed++
	}
	if h.Buffered() == 0 && h.Prefetched() == 0 {
		t.Fatal("test setup should leave handle-local elements")
	}
	h.Close()
	if h.Buffered() != 0 || h.Prefetched() != 0 {
		t.Fatalf("Close must drain handle-local state: Buffered=%d Prefetched=%d", h.Buffered(), h.Prefetched())
	}
	if got, want := q.Len(), n+1-consumed; got != want {
		t.Fatalf("conservation after Close: Len=%d want %d", got, want)
	}
	if !h.closed {
		t.Fatal("Closed() should report true")
	}
	h.Close() // idempotent
	if got, want := q.Len(), n+1-consumed; got != want {
		t.Fatalf("second Close must be a no-op: Len=%d want %d", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Dequeue on a closed MQHandle must panic")
			}
		}()
		h.Dequeue()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Enqueue on a closed MQHandle must panic")
			}
		}()
		h.Enqueue(1)
	}()
}

// TestMQHandleClosePreservesFullResolutionPriorities drains a queue through
// Close's AddBatch give-back with priorities straddling the 2^48 top-word
// truncation boundary, so the returned prefetch cannot be re-ranked by a
// truncated word.
func TestMQHandleClosePreservesFullResolutionPriorities(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 1}, Batch: 4})
	h := q.NewHandle(1)
	base := uint64(1) << 48
	prios := []uint64{base + 2, 3, base - 1, base, 7, base + 1, base - 2, 5}
	for _, p := range prios {
		h.EnqueuePriority(p, p)
	}
	h.Flush()
	// Prefetch a run, consume one element, abandon the rest via Close.
	if _, ok := h.Dequeue(); !ok {
		t.Fatal("expected an element")
	}
	h.Close()
	h2 := q.NewHandle(2)
	var got []uint64
	for {
		it, ok := h2.Dequeue()
		if !ok {
			break
		}
		got = append(got, it.Priority)
	}
	if len(got) != len(prios)-1 {
		t.Fatalf("drained %d elements, want %d", len(got), len(prios)-1)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("m=1 drain must be exactly sorted at full resolution: %v", got)
		}
	}
}

// TestMQStatsCounters checks the monitoring counters the daemon exports:
// elisions and publications move under batched traffic and rerolls count
// empty-outcome redraws.
func TestMQStatsCounters(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 2}, Batch: 4, Stickiness: 4, Seed: 9})
	h := q.NewHandle(1)
	if s := q.Stats(); s.Elisions != 0 || s.Publications != 0 || s.LockContended != 0 {
		t.Fatalf("fresh queue should have zero counters: %+v", s)
	}
	for i := 0; i < 256; i++ {
		h.Enqueue(uint64(i))
	}
	h.Flush()
	s := q.Stats()
	if s.Publications == 0 {
		t.Fatalf("batched enqueues should have published at least once: %+v", s)
	}
	if s.Elisions == 0 {
		t.Fatalf("monotone-stamp batched enqueues should elide publications: %+v", s)
	}
	for {
		if _, ok := h.Dequeue(); !ok {
			break
		}
	}
	// Dequeue-on-empty forces rerolls (every attempt abandons its sticky
	// candidates) before the fallback sweep returns false.
	if h.Rerolls() == 0 {
		t.Fatal("draining past empty should have requested sampler rerolls")
	}
	if s2 := q.Stats(); s2.Publications < s.Publications {
		t.Fatalf("counters must be monotonic: %+v then %+v", s, s2)
	}
}
