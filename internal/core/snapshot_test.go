package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/cpq"
	"repro/internal/heap"
)

// TestSnapshotElementsRoundTrip pins the durability snapshotter's core
// contract: SnapshotElements reports exactly the queue's contents, leaves
// every element where it was (same per-shard sizes and the same published
// top words before and after, so the next dequeues see the placement they
// would have seen), and a subsequent full dequeue still yields everything.
func TestSnapshotElementsRoundTrip(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Batch: 4, Seed: 7})
	h := q.NewHandle(1)
	const n = 100
	for i := 0; i < n; i++ {
		h.EnqueuePriority(uint64(i%13), uint64(1000+i))
	}
	h.Flush()
	sizes, tops := shardState(q)

	snap := q.SnapshotElements(nil)
	if len(snap) != n {
		t.Fatalf("snapshot captured %d of %d elements", len(snap), n)
	}
	if gotSizes, gotTops := shardState(q); !slices.Equal(gotSizes, sizes) || !slices.Equal(gotTops, tops) {
		t.Fatalf("snapshot moved elements: sizes %v tops %v before, %v %v after", sizes, tops, gotSizes, gotTops)
	}
	if q.Len() != n {
		t.Fatalf("snapshot drained the structure: Len=%d", q.Len())
	}
	// Capture again: identical multiset.
	snap2 := q.SnapshotElements(nil)
	if !sameMultiset(snap, snap2) {
		t.Fatalf("second snapshot differs from first")
	}
	// Everything still dequeues.
	got := 0
	for {
		if _, ok := h.Dequeue(); !ok {
			break
		}
		got++
	}
	if got != n {
		t.Fatalf("dequeued %d of %d after snapshot", got, n)
	}
}

// TestReturnPrefetched pins the step dlzd's give-back runs on a handle
// pair: prefetched elements go back to the shared structure, the handle
// stays usable, and nothing is lost or duplicated.
func TestReturnPrefetched(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 2}, Batch: 8, Seed: 5})
	h := q.NewHandle(1)
	for i := 0; i < 32; i++ {
		h.EnqueuePriority(uint64(i), uint64(i))
	}
	h.Flush()
	if _, ok := h.Dequeue(); !ok {
		t.Fatalf("Dequeue refused")
	}
	if h.Prefetched() == 0 {
		t.Fatalf("expected a prefetch remainder with Batch=8")
	}
	pre := h.Prefetched()
	if q.Len() != 31-pre {
		t.Fatalf("Len=%d with %d prefetched", q.Len(), pre)
	}
	h.ReturnPrefetched()
	if h.Prefetched() != 0 {
		t.Fatalf("prefetch not cleared")
	}
	if q.Len() != 31 {
		t.Fatalf("Len=%d after return, want 31", q.Len())
	}
	// Handle still works and total conservation holds.
	got := 0
	for {
		if _, ok := h.Dequeue(); !ok {
			break
		}
		got++
	}
	if got != 31 {
		t.Fatalf("dequeued %d of 31 after ReturnPrefetched", got)
	}
}

// shardState returns the per-shard sizes and published top words of q.
func shardState(q *MultiQueue) ([]int, []cpq.TopWord) {
	sizes := make([]int, q.M())
	q.Sizes(sizes)
	tops := make([]cpq.TopWord, q.M())
	for i := range tops {
		tops[i] = q.qs[i].ReadTop()
	}
	return sizes, tops
}

func sameMultiset(a, b []heap.Item) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(it heap.Item) [2]uint64 { return [2]uint64{it.Priority, it.Value} }
	as, bs := append([]heap.Item(nil), a...), append([]heap.Item(nil), b...)
	less := func(s []heap.Item) func(i, j int) bool {
		return func(i, j int) bool {
			return key(s[i]) != key(s[j]) && (s[i].Priority < s[j].Priority ||
				(s[i].Priority == s[j].Priority && s[i].Value < s[j].Value))
		}
	}
	sort.Slice(as, less(as))
	sort.Slice(bs, less(bs))
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
