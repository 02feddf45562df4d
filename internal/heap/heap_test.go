package heap

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// Verify checks that the run is sorted descending and the pending heap is
// heap-ordered (parent <= children) and returns false at the first violation.
func (h *Binary) Verify() bool {
	for i := 1; i < len(h.a); i++ {
		if h.a[i-1].Priority < h.a[i].Priority {
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
// items per item that went through the pending heap — a flush is due only
// once the pending heap holds 1/flushDiv of the run, so it is flushDiv + 1 by
// construction and more only if the schedule degrades; (b) inserts alone
// never flush, whatever they pile up (flushing on the push side made the
// prefill dearer: EXPERIMENTS.md §16); (c) a flush leaves the pending heap a small
// array — at most twice the largest flush threshold the stream has seen — or
// the run's old array, swapped for the longer pending one it adopted (merging
// by append instead kept both large arrays alive).
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
			batch := make([]Item, k)
			push := func() {
				for j := range batch {
					batch[j] = Item{Priority: key(i, h, r), Value: i}
					i++
				}
				before := len(h.p)
				if i/k%2 == 0 {
					h.PushBatch(batch)
				} else {
					for _, it := range batch {
						h.Push(it)
					}
				}
				pending += uint64(len(h.p) - before)
			}
			maxThreshold, swapped := tailWindow, 0
			var dst []Item
			pop := func() int {
				moved, runCap, adopts := h.moved, cap(h.a), len(h.p) > len(h.a)
				maxThreshold = max(maxThreshold, len(h.a)/flushDiv)
				dst, _, _ = h.PopBatch(k, dst[:0])
				if h.moved != moved {
					if adopts {
						swapped = runCap // the run's old array is the pending array from here on
					}
					if c := cap(h.p); c > 2*maxThreshold+k && c != swapped {
						t.Fatalf("%s loop=%v: a flush left a pending array of %d items (threshold %d, array swapped in at an adoption %d)",
							name, loop, c, maxThreshold, swapped)
					}
				}
				return len(dst)
			}
			inserts := pushes
			if loop {
				inserts = prefill
			}
			for i < uint64(inserts) {
				push()
			}
			if h.moved != 0 {
				t.Fatalf("%s loop=%v: %d inserts alone moved %d items in flushes", name, loop, inserts, h.moved)
			}
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
