package heap

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// boundary returns the two keys that meet where Binary's parts do: the
// pending minimum and the largest key of the sorted run that is not above it
// (no order holds between the two parts, so they meet wherever the pending
// minimum falls in the run). ok is false unless both exist.
func boundary(h *Binary) (below, above uint64, ok bool) {
	if len(h.p) > 0 {
		min := h.p[0].Priority
		if i := sort.Search(h.n, func(i int) bool { return h.at(i).Priority <= min }); i < h.n {
			return h.at(i).Priority, min, true
		}
	}
	return 0, 0, false
}

// TestStashDuplicatePriorities keeps every push within a few keys of the
// current minimum — the wire stream's Zipf priorities tie constantly — so
// equal keys pile up on both sides of the boundary between the sorted run and
// the pending heap. Binary routes by the tailWindow-th smallest key of its
// run, and a minimum falling by two a step would put every key under it and
// nothing in the pending heap; letting it fall by one puts the same key in
// the run and pending at once on most steps. Each pop must return the
// model's minimum (so pops between pushes never go backwards) and the popped
// multiset must equal the pushed.
func TestStashDuplicatePriorities(t *testing.T) {
	const domain = 4096
	t.Run("binary", func(t *testing.T) {
		h := NewBinary(0)
		const fall = 1 // how far below the minimum a push may land
		r := rng.NewXoshiro256(5)
		in := map[Item]int{}
		out := map[Item]int{}
		var count [domain]int // the model: how many items of each priority are stored
		refMin := func() uint64 {
			for p, n := range count {
				if n > 0 {
					return uint64(p)
				}
			}
			return domain / 2
		}
		var ties int // steps that left equal keys on both sides of the boundary
		pop := func(k int) {
			got, _, _ := h.PopBatch(k, nil)
			for _, it := range got {
				if want := refMin(); it.Priority != want {
					t.Fatalf("popped priority %d, minimum is %d", it.Priority, want)
				}
				count[it.Priority]--
				out[it]++
			}
		}
		batch := make([]Item, 0, 8)
		for step := 0; step < 4000; step++ {
			batch = batch[:0]
			for i := 0; i < 8; i++ {
				p := refMin() + r.Uint64n(5)
				if p < 2 {
					p = 2
				}
				it := Item{Priority: p - fall, Value: r.Uint64n(3)}
				batch = append(batch, it)
				count[it.Priority]++
				in[it]++
			}
			if step%2 == 0 {
				h.PushBatch(batch)
			} else {
				for _, it := range batch {
					h.Push(it)
				}
			}
			if !h.Verify() {
				t.Fatalf("step %d: invariant broken after push", step)
			}
			if step >= 64 { // let the queue build up first
				pop(1 + int(r.Uint64n(12)))
			}
			if !h.Verify() {
				t.Fatalf("step %d: invariant broken after pop", step)
			}
			if sm, am, ok := boundary(h); ok && sm == am {
				ties++
			}
		}
		if ties < 1000 {
			t.Fatalf("equal keys straddled the boundary after only %d of 4000 steps", ties)
		}
		pop(h.Len() + 1)
		if h.Len() != 0 {
			t.Fatalf("Len = %d after full drain", h.Len())
		}
		if len(in) != len(out) {
			t.Fatalf("pushed %d distinct items, popped %d", len(in), len(out))
		}
		for it, n := range in {
			if out[it] != n {
				t.Fatalf("item %+v pushed %d times, popped %d", it, n, out[it])
			}
		}
	})
}

// TestStashServesSection7Loop runs the paper's Section 7 loop on one shard —
// prefill n uniform keys, then alternate a batch of uniform inserts with a
// batch of delete-mins for 8n operations — and counts how many pops took the
// cheap way out: a truncation of the sorted run (every pop that did not come
// off the pending heap). The shard minimum climbs as 1 − m ≈ 1/(1 + t/n), so
// the share of fresh keys that land below it (and so in the run's tail)
// passes 70 % early in the run.
func TestStashServesSection7Loop(t *testing.T) {
	const n, k = 4096, 8
	t.Run("binary", func(t *testing.T) {
		h := NewBinary(2 * n)
		r := rng.NewXoshiro256(7)
		for i := 0; i < n; i++ {
			h.Push(Item{Priority: r.Next(), Value: uint64(i)})
		}
		var pops, cheap int
		batch := make([]Item, k)
		var dst []Item
		for step := 0; step < 8*n/k; step++ {
			for i := range batch {
				batch[i] = Item{Priority: r.Next()}
			}
			h.PushBatch(batch)
			pending, moved := len(h.p), h.moved
			dst, _, _ = h.PopBatch(k, dst[:0])
			pops += len(dst)
			if h.moved != moved {
				cheap += len(dst) // flushed first: nothing was pending
			} else {
				cheap += len(dst) - (pending - len(h.p))
			}
		}
		if !h.Verify() || h.Len() != n {
			t.Fatalf("after the loop: Verify %v, Len %d (want %d)", h.Verify(), h.Len(), n)
		}
		if frac := float64(cheap) / float64(pops); frac < 0.70 {
			t.Fatalf("%.1f %% of %d pops avoided a sift, want >= 70 %%", 100*frac, pops)
		}
	})
}

// TestStashIdlesUnderFIFO pins the other half of the routing rule: with
// monotone priorities (the MultiQueue's clock stamps) over a standing
// backlog no insert moves an item of the sorted run — each batch grows the
// pending heap by its own length, and only the flush inside a pop touches
// the run.
func TestStashIdlesUnderFIFO(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		h := NewBinary(0)
		var stamp uint64
		push := func(k int) {
			batch := make([]Item, k)
			for i := range batch {
				stamp++
				batch[i] = Item{Priority: stamp}
			}
			h.PushBatch(batch)
		}
		push(4 * tailWindow)
		h.PopBatch(tailWindow, nil)
		for step := 0; step < 1000; step++ {
			run, pending := h.n, len(h.p)
			push(8)
			if h.n != run || len(h.p) != pending+8 {
				t.Fatalf("step %d: a FIFO batch of 8 took run/pending from %d/%d to %d/%d", step, run, pending, h.n, len(h.p))
			}
			h.PopBatch(8, nil)
		}
	})
}

// TestStashResetLenAndCallerBatch covers the bookkeeping a two-part layout
// must not break: Len counts both parts, a PopBatch of Len items empties
// both, and PushBatch
// leaves the caller's batch in the order it was given.
func TestStashResetLenAndCallerBatch(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		h := NewBinary(0)
		for p := uint64(100); p < 102+tailWindow; p++ {
			h.Push(Item{Priority: p}) // the last two land in the pending heap
		}
		batch := []Item{{Priority: 9}, {Priority: 70}, {Priority: 3}, {Priority: 7}}
		want := append([]Item(nil), batch...)
		if min, ok := h.PushBatch(batch); !ok || min.Priority != 3 {
			t.Fatalf("PushBatch min = (%d,%v), want 3", min.Priority, ok)
		}
		for i := range batch {
			if batch[i] != want[i] {
				t.Fatalf("PushBatch reordered the caller's batch: %v", batch)
			}
		}
		first, second := h.n, len(h.p)
		if first+second != 70 || h.Len() != 70 || second == 0 {
			t.Fatalf("parts %d + %d, Len %d; want 70 over both parts", first, second, h.Len())
		}
		h.PopBatch(h.Len(), nil)
		first, second = h.n, len(h.p)
		if _, ok := h.Peek(); ok || h.Len() != 0 || first != 0 || second != 0 || !h.Verify() {
			t.Fatalf("draining PopBatch left parts %d + %d, Len %d, Verify %v", first, second, h.Len(), h.Verify())
		}
		h.Push(Item{Priority: 1})
		if it, ok := h.pop(); !ok || it.Priority != 1 || h.Len() != 0 {
			t.Fatal("heap unusable after a draining PopBatch")
		}
	})
}

// TestStashLargeBatches drives PushBatch with batches far beyond stashRun and
// tailWindow, into empty and non-empty heaps, below and around the stored
// minimum: the bulk load must cover the whole batch and the reported minimum
// must be the true one.
func TestStashLargeBatches(t *testing.T) {
	for _, pre := range []int{0, 1, 10, 300} {
		for _, k := range []int{1, stashRun, stashRun + 1, tailWindow, tailWindow + 1, 500} {
			h := NewBinary(0)
			r := rng.NewXoshiro256(uint64(pre*1000 + k))
			var want []uint64
			for i := 0; i < pre; i++ {
				p := 1000 + r.Uint64n(1000)
				h.Push(Item{Priority: p})
				want = append(want, p)
			}
			batch := make([]Item, k)
			for i := range batch {
				batch[i].Priority = r.Uint64n(1500) // two thirds below every prefilled key
				want = append(want, batch[i].Priority)
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			min, ok := h.PushBatch(batch)
			if !ok || min.Priority != want[0] || !h.Verify() || h.Len() != len(want) {
				t.Fatalf("pre=%d k=%d: min (%d,%v) want %d, Verify %v, Len %d want %d",
					pre, k, min.Priority, ok, want[0], h.Verify(), h.Len(), len(want))
			}
			got, _, ok := h.PopBatch(len(want)+1, nil)
			if ok || len(got) != len(want) {
				t.Fatalf("pre=%d k=%d: drained %d of %d, min still reported %v", pre, k, len(got), len(want), ok)
			}
			for i, w := range want {
				if got[i].Priority != w {
					t.Fatalf("pre=%d k=%d: drain[%d] = %d, want %d", pre, k, i, got[i].Priority, w)
				}
			}
		}
	}
}

// TestStashTopPriority pins the short-run threshold: math.MaxUint64 stands for
// "no limit" while the sorted run is shorter than tailWindow, so an item of
// that very priority is merged into the run like any other and must still
// come out last.
func TestStashTopPriority(t *testing.T) {
	h := NewBinary(0)
	h.Push(Item{Priority: math.MaxUint64, Value: 1})
	h.PushBatch([]Item{{Priority: math.MaxUint64, Value: 2}, {Priority: 5}, {Priority: math.MaxUint64 - 1}})
	got, _, ok := h.PopBatch(5, nil)
	if ok || len(got) != 4 || got[0].Priority != 5 || got[1].Priority != math.MaxUint64-1 ||
		got[2].Priority != math.MaxUint64 || got[3].Priority != math.MaxUint64 || !h.Verify() {
		t.Fatalf("drained %v (min still reported: %v)", got, ok)
	}
}
