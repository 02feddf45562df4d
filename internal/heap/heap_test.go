package heap

import (
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rng"
)

// Verify checks that the run is sorted descending and the pending heap is
// heap-ordered (parent <= children) and returns false at the first violation.
func (h *Binary) Verify() bool {
	for i := 1; i < h.n; i++ {
		if h.at(i-1).Priority < h.at(i).Priority {
			return false
		}
	}
	for i := 1; i < len(h.p); i++ {
		if h.p[(i-1)/2].Priority > h.p[i].Priority {
			return false
		}
	}
	return true
}

// pop removes and returns the minimum item: a PopBatch of one.
func (h *Binary) pop() (Item, bool) {
	one, _, _ := h.PopBatch(1, nil)
	if len(one) == 0 {
		return Item{}, false
	}
	return one[0], true
}

func TestEmptyBehavior(t *testing.T) {
	h := NewBinary(16)
	if _, ok := h.pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
	if _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty returned ok")
	}
	if h.Len() != 0 {
		t.Fatal("empty Len != 0")
	}
}

func TestPushPopSorted(t *testing.T) {
	h := NewBinary(16)
	in := []uint64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, p := range in {
		h.Push(Item{Priority: p, Value: p * 10})
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d", h.Len())
	}
	for want := uint64(0); want < 10; want++ {
		it, ok := h.pop()
		if !ok || it.Priority != want || it.Value != want*10 {
			t.Fatalf("Pop = %+v ok=%v, want priority %d", it, ok, want)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	h := NewBinary(16)
	h.Push(Item{Priority: 2})
	h.Push(Item{Priority: 1})
	it, ok := h.Peek()
	if !ok || it.Priority != 1 {
		t.Fatalf("Peek = %+v", it)
	}
	if h.Len() != 2 {
		t.Fatal("Peek removed an item")
	}
}

func TestDuplicatePriorities(t *testing.T) {
	h := NewBinary(16)
	for i := 0; i < 5; i++ {
		h.Push(Item{Priority: 7, Value: uint64(i)})
	}
	seen := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		it, ok := h.pop()
		if !ok || it.Priority != 7 {
			t.Fatalf("pop %d = %+v", i, it)
		}
		if seen[it.Value] {
			t.Fatalf("value %d popped twice", it.Value)
		}
		seen[it.Value] = true
	}
}

// TestAgainstReferenceQuick drives each heap with a random op sequence and
// compares every output against a sorted-slice reference model.
func TestAgainstReferenceQuick(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		h := NewBinary(16)
		r := rng.NewXoshiro256(seed)
		var ref []uint64
		for _, op := range ops {
			if op%3 != 0 || len(ref) == 0 { // bias toward pushes
				p := uint64(op) >> 2
				h.Push(Item{Priority: p, Value: r.Next()})
				ref = append(ref, p)
				sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
			} else {
				it, ok := h.pop()
				if !ok || it.Priority != ref[0] {
					return false
				}
				ref = ref[1:]
			}
			if h.Len() != len(ref) {
				return false
			}
			if len(ref) > 0 {
				it, ok := h.Peek()
				if !ok || it.Priority != ref[0] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("%v", err)
	}
}

func TestBinaryVerifyAfterRandomOps(t *testing.T) {
	h := NewBinary(0)
	r := rng.NewXoshiro256(42)
	for i := 0; i < 10000; i++ {
		if r.Next()&1 == 1 || h.Len() == 0 {
			h.Push(Item{Priority: r.Uint64n(1000)})
		} else {
			h.pop()
		}
		if i%100 == 0 && !h.Verify() {
			t.Fatalf("heap invariant violated after %d ops", i)
		}
	}
}

// TestBinaryFlushWorkBounded pins the flush schedule of Binary's layout over
// 2^17 pushes of five key streams, as inserts alone followed by a drain and
// as the Section 7 loop over a standing prefill: (a) flushes move at most 40
// items per item that went through the pending heap — a pop-side flush is due
// only once the pending heap holds 1/flushDiv of the run, so it is flushDiv +
// 1 by construction and more only if the schedule degrades; (b) inserts alone
// move at most pendingDiv + 1 items per insert — a push-side flush leaves a
// run at least 1 + 1/pendingDiv times the one before it and moves at most
// the new run, so the moves of a fill are a geometric series summing to
// (pendingDiv + 1) times the last run; (c) a flush leaves the pending heap a
// small array, at most twice the largest flush threshold the stream has seen.
func TestBinaryFlushWorkBounded(t *testing.T) {
	const pushes, prefill, k = 1 << 17, 1 << 12, 8
	streams := map[string]func(i uint64, h *Binary, r *rng.Xoshiro256) uint64{
		"ascending":  func(i uint64, _ *Binary, _ *rng.Xoshiro256) uint64 { return i },
		"descending": func(i uint64, _ *Binary, _ *rng.Xoshiro256) uint64 { return pushes - i },
		"sawtooth":   func(i uint64, _ *Binary, _ *rng.Xoshiro256) uint64 { return i%1024<<20 + i/1024 },
		"uniform":    func(_ uint64, _ *Binary, r *rng.Xoshiro256) uint64 { return r.Next() },
		"above-threshold": func(_ uint64, h *Binary, r *rng.Xoshiro256) uint64 {
			if thr := h.tailThreshold(); thr < 1<<63 {
				return thr + 1
			}
			return r.Next() >> 1
		},
	}
	for name, key := range streams {
		for _, loop := range []bool{false, true} {
			h := NewBinary(0)
			r := rng.NewXoshiro256(3)
			var i, pending uint64
			maxThreshold := tailWindow
			// flushed checks (c) after an operation that moved items.
			flushed := func(moved uint64) bool {
				if h.moved == moved {
					return false
				}
				if c := cap(h.p); c > 2*maxThreshold+k {
					t.Fatalf("%s loop=%v: a flush left a pending array of %d items (threshold %d)", name, loop, c, maxThreshold)
				}
				return true
			}
			batch := make([]Item, k)
			push := func() {
				for j := range batch {
					batch[j] = Item{Priority: key(i, h, r), Value: i}
					i++
				}
				// A push flushes before it routes, so after a flush the
				// pending heap holds only items of this batch. Counting those
				// alone misses the ones a batch of single pushes sent there
				// before flushing midway, which only tightens (a).
				before, moved := len(h.p), h.moved
				maxThreshold = max(maxThreshold, h.n/pendingDiv)
				if i/k%2 == 0 {
					h.PushBatch(batch)
				} else {
					for _, it := range batch {
						h.Push(it)
					}
				}
				if flushed(moved) {
					before = 0
				}
				pending += uint64(len(h.p) - before)
			}
			var dst []Item
			pop := func() int {
				moved := h.moved
				dst, _, _ = h.PopBatch(k, dst[:0])
				flushed(moved)
				return len(dst)
			}
			inserts := pushes
			if loop {
				inserts = prefill
			}
			for i < uint64(inserts) {
				push()
			}
			if h.moved > (pendingDiv+1)*uint64(inserts) {
				t.Fatalf("%s loop=%v: %d inserts alone moved %d items in flushes (%.1f each, want <= %d)",
					name, loop, inserts, h.moved, float64(h.moved)/float64(inserts), pendingDiv+1)
			}
			t.Logf("%s loop=%v: %d inserts alone moved %.2f items each", name, loop, inserts, float64(h.moved)/float64(inserts))
			for i < pushes {
				push()
				pop()
			}
			for pop() > 0 {
			}
			if !h.Verify() || h.Len() != 0 {
				t.Fatalf("%s loop=%v: Verify %v, Len %d after the drain", name, loop, h.Verify(), h.Len())
			}
			if h.moved > 40*pending {
				t.Fatalf("%s loop=%v: flushes moved %d items for %d pending pushes (%.1f each, want <= 40)",
					name, loop, h.moved, pending, float64(h.moved)/float64(pending))
			}
		}
	}
}

// TestBinaryFillFootprint holds what an insert-only fill allocates, 2^16
// uniform pushes into the zero value, to twice the items' bytes plus 64 KiB:
// the run's chunks hold each item once, and the pending heap, flushed before
// it outgrows a quarter of the run, regrows by append to under as much again.
// A pending array that took the whole fill and was regrown by append to hold
// it allocated 5.3 times the items' bytes. The drain must return every item
// in order, and the same fill of the drained queue must allocate nothing:
// the chunks pops freed and the pending array stay for it.
func TestBinaryFillFootprint(t *testing.T) {
	const items = 1 << 16
	var h Binary
	fill := func() uint64 {
		r := rng.NewXoshiro256(11)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < items; i++ {
			h.Push(Item{Priority: r.Next(), Value: uint64(i)})
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	itemBytes := uint64(items * unsafe.Sizeof(Item{}))
	if got := fill(); got > 2*itemBytes+64<<10 {
		t.Fatalf("a fill of %d items allocated %d B, %.2f times their %d B; want <= 2 times + 64 KiB",
			items, got, float64(got)/float64(itemBytes), itemBytes)
	} else {
		t.Logf("a fill of %d items allocated %.2f times their bytes", items, float64(got)/float64(itemBytes))
	}
	drained, _, ok := h.PopBatch(items+1, nil)
	if ok || len(drained) != items || !sort.SliceIsSorted(drained, func(i, j int) bool { return drained[i].Priority < drained[j].Priority }) {
		t.Fatalf("drained %d of %d items, minimum still reported %v, or out of order", len(drained), items, ok)
	}
	if got := fill(); got != 0 {
		t.Fatalf("refilling the drained queue allocated %d B, want 0", got)
	}
}

func TestCrossImplementationAgreement(t *testing.T) {
	// The same operation sequence on Binary and the sorted-slice model must
	// produce identical priority sequences.
	r := rng.NewXoshiro256(7)
	b := NewBinary(0)
	var ref refModel
	for i := 0; i < 5000; i++ {
		if r.Uint64n(3) != 0 {
			pr := r.Uint64n(500)
			b.Push(Item{Priority: pr})
			ref.Push(pr)
		} else {
			ib, okb := b.pop()
			want, okr := ref.Pop()
			if okb != okr || (okb && ib.Priority != want) {
				t.Fatalf("heap and model disagree at op %d: %+v/%v vs %d/%v", i, ib, okb, want, okr)
			}
		}
	}
}

func BenchmarkBinaryPushPop(b *testing.B) {
	h := NewBinary(1024)
	r := rng.NewXoshiro256(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(Item{Priority: r.Next()})
		if h.Len() > 1000 {
			h.pop()
		}
	}
}
