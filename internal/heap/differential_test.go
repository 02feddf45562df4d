package heap

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// refModel is the sorted-slice reference a heap is differentially tested
// against: Push keeps the slice sorted, Pop takes the front. Quadratic and
// obviously correct.
type refModel struct{ a []uint64 }

func (m *refModel) Push(p uint64) {
	i := sort.Search(len(m.a), func(i int) bool { return m.a[i] >= p })
	m.a = append(m.a, 0)
	copy(m.a[i+1:], m.a[i:])
	m.a[i] = p
}

func (m *refModel) Pop() (uint64, bool) {
	if len(m.a) == 0 {
		return 0, false
	}
	p := m.a[0]
	m.a = m.a[1:]
	return p, true
}

// stashCoverage counts how often a differential stream reached each corner
// of Binary's two-part layout — its chunked sorted run and its pending heap —
// so the tests can assert the seeded streams exercise all of them rather than
// hope so.
type stashCoverage struct {
	tailInsert  int // an insert was merged into the sorted run's tail
	pendingPush int // an insert went onto the pending heap
	flushMerge  int // a pop's flush merged the pending items into the run
	pushFlush   int // a push found the pending heap full and flushed it first
	bothParts   int // one PopBatch took items from both parts
	pendingOnly int // an op left the sorted run empty and the pending heap not
	bulkLoad    int // a PushBatch rivalling the stored items was sorted and merged whole
	popAcross   int // a pop truncated the run across a chunk boundary
	tailSpan    int // a tail merge wrote slots in two chunks
	chunkReuse  int // the run grew into a chunk that pops had freed
}

// belowMin draws a priority at or just below the model's current minimum (a
// tie one time in four), or a fresh one from the base range when the model is
// empty or its minimum is already 0.
func belowMin(r *rng.Xoshiro256, ref *refModel) uint64 {
	if len(ref.a) == 0 || ref.a[0] == 0 {
		return diffBase + r.Uint64n(64)
	}
	d := r.Uint64n(4)
	if d > ref.a[0] {
		d = ref.a[0]
	}
	return ref.a[0] - d
}

// diffBase offsets the stream's ordinary priorities so that runs of keys
// below the current minimum have room to descend.
const diffBase = 1 << 20

// Key modes: how a differential stream draws the priorities of its ordinary
// pushes. The stream's first byte picks one (keyMode), so the fuzzer can
// reach them all and a seed can pin each.
const (
	keysUniform    = iota // 64 values above diffBase: ties everywhere
	keysAscending         // FIFO stamps: every key above everything stored
	keysDescending        // every key below everything pushed before it
	keysEqual             // one key
	keysThreshold         // within one of the model's tailWindow-th smallest key
	keyModes
)

func keyMode(data []byte) int {
	if len(data) == 0 {
		return keysUniform
	}
	return int(data[0]) / 7 % keyModes
}

// modeStream returns a stream in the given key mode that walks a heap
// through its life: filled by inserts alone to four chunks of run (so the
// pending heap reaches its bound and a push flushes it), a stretch with every
// operation kind in turn, drained to empty, refilled just past tailWindow
// into a chunk the drain freed and popped until only late arrivals are left.
func modeStream(mode int) []byte {
	const pushBatch16, popBatch16 = 3 + 7*16, 4 + 7*16
	data := []byte{byte(7 * mode)} // op 0, a single push
	for i := 0; i < 64; i++ {
		data = append(data, pushBatch16)
	}
	for i := 0; i < 256; i++ {
		data = append(data, byte(i*37))
	}
	for i := 0; i < 160; i++ {
		data = append(data, popBatch16)
	}
	data = append(data, pushBatch16, pushBatch16, pushBatch16, pushBatch16, pushBatch16)
	return append(data, popBatch16, popBatch16, popBatch16, popBatch16, 2, 2, 2)
}

// applyDifferentialOps drives one heap and the reference model through the
// operation stream encoded in data and reports the first divergence. Each
// byte selects an operation; priorities are drawn from a seeded generator so
// the stream stays byte-dense for the fuzzer (every input decodes to a valid
// sequence). Batch sizes intentionally cross the k >= n bulk threshold of
// PushBatch, and two of the seven operations push keys at or below the
// current minimum — the Section 7 pattern that routes into the tail of
// Binary's sorted run. Verify runs after every operation; cov, when non-nil,
// accumulates which layout corners were reached.
func applyDifferentialOps(t *testing.T, h *Binary, data []byte, cov *stashCoverage) {
	t.Helper()
	var ref refModel
	r := rng.NewXoshiro256(uint64(len(data)) + 1)
	mode, seq := keyMode(data), uint64(0)
	ordinary := func() uint64 {
		seq++
		switch mode {
		case keysAscending:
			return diffBase + seq
		case keysDescending:
			return 2*diffBase - seq
		case keysEqual:
			return diffBase
		case keysThreshold:
			if len(ref.a) >= tailWindow {
				return ref.a[tailWindow-1] + r.Uint64n(3)
			}
		}
		return diffBase + r.Uint64n(64)
	}
	if cov == nil {
		cov = new(stashCoverage)
	}
	var scratch []Item
	highWater := 0 // the longest run an operation has left
	for opIdx, op := range data {
		runBefore, pendingBefore, movedBefore, bulk := h.n, len(h.p), h.moved, false
		var edge Item // the item below the chunk that holds slot runBefore
		if b := runBefore &^ chunkMask; b > 0 {
			edge = *h.at(b - 1)
		}
		switch op % 7 {
		case 5: // single push at or below the current minimum
			p := belowMin(r, &ref)
			h.Push(Item{Priority: p, Value: r.Next()})
			ref.Push(p)
		case 6: // batch push of a descending run below the current minimum
			k := int(op / 7 % 17)
			scratch = scratch[:0]
			for i := 0; i < k; i++ {
				p := belowMin(r, &ref)
				scratch = append(scratch, Item{Priority: p, Value: r.Next()})
				ref.Push(p)
			}
			bulk = k >= stashRun && k >= runBefore+pendingBefore
			min, ok := h.PushBatch(scratch)
			if ok != (len(ref.a) > 0) || (ok && min.Priority != ref.a[0]) {
				t.Fatalf("op %d PushBatch(below) min = (%d,%v), want (%v)", opIdx, min.Priority, ok, ref.a)
			}
		case 0, 1: // single push (biased so heaps grow)
			p := ordinary()
			h.Push(Item{Priority: p, Value: r.Next()})
			ref.Push(p)
		case 2: // single pop
			want, wantOK := ref.Pop()
			it, ok := h.pop()
			if ok != wantOK || (ok && it.Priority != want) {
				t.Fatalf("op %d Pop = (%d,%v), want (%d,%v)", opIdx, it.Priority, ok, want, wantOK)
			}
		case 3: // batch push, size 0..16
			k := int(op / 7 % 17)
			scratch = scratch[:0]
			for i := 0; i < k; i++ {
				p := ordinary()
				scratch = append(scratch, Item{Priority: p, Value: r.Next()})
				ref.Push(p)
			}
			bulk = k >= stashRun && k >= runBefore+pendingBefore
			min, ok := h.PushBatch(scratch)
			if ok != (len(ref.a) > 0) || (ok && min.Priority != ref.a[0]) {
				t.Fatalf("op %d PushBatch min = (%d,%v), want (%v)", opIdx, min.Priority, ok, ref.a)
			}
		case 4: // batch pop, size 0..16
			k := int(op / 7 % 17)
			var min Item
			var ok bool
			scratch, min, ok = h.PopBatch(k, scratch[:0])
			wantN := len(ref.a) - len(scratch)
			if ok != (wantN > 0) || (ok && min.Priority != ref.a[len(scratch)]) {
				t.Fatalf("op %d PopBatch min = (%d,%v) with %d left", opIdx, min.Priority, ok, wantN)
			}
			for i, it := range scratch {
				want, wantOK := ref.Pop()
				if !wantOK || it.Priority != want {
					t.Fatalf("op %d PopBatch[%d] = %d, want (%d,%v)", opIdx, i, it.Priority, want, wantOK)
				}
			}
			if k > len(scratch) && len(ref.a) != 0 {
				t.Fatalf("op %d PopBatch stopped at %d with %d items left", opIdx, len(scratch), len(ref.a))
			}
		}
		if h.Len() != len(ref.a) {
			t.Fatalf("op %d Len = %d, want %d", opIdx, h.Len(), len(ref.a))
		}
		if !h.Verify() {
			t.Fatalf("op %d (code %d) broke the invariant", opIdx, op%7)
		}
		pushed := op%7 != 2 && op%7 != 4
		runNow, pendingNow := h.n, len(h.p)
		flushed := h.moved != movedBefore
		last := (runNow - 1) >> chunkShift // the chunk holding the run's minimum
		switch {
		case pushed && flushed && bulk:
			cov.bulkLoad++
		case pushed && flushed:
			cov.pushFlush++
		case pushed:
			if runNow > runBefore {
				cov.tailInsert++
				if b := runBefore &^ chunkMask; last > b>>chunkShift || (b > 0 && *h.at(b - 1) != edge) {
					cov.tailSpan++
				}
			}
			if pendingNow > pendingBefore {
				cov.pendingPush++
			}
		case flushed:
			cov.flushMerge++
		case runNow < runBefore:
			if runNow>>chunkShift != (runBefore-1)>>chunkShift {
				cov.popAcross++
			}
			if pendingNow < pendingBefore {
				cov.bothParts++
			}
		}
		if runNow > runBefore && last >= (runBefore+chunkMask)>>chunkShift && highWater > 0 && last <= (highWater-1)>>chunkShift {
			cov.chunkReuse++
		}
		highWater = max(highWater, runNow)
		if runNow == 0 && pendingNow > 0 {
			cov.pendingOnly++
		}
		if len(ref.a) > 0 {
			it, ok := h.Peek()
			if !ok || it.Priority != ref.a[0] {
				t.Fatalf("op %d Peek = (%d,%v), want %d", opIdx, it.Priority, ok, ref.a[0])
			}
		}
	}
	// Drain and compare the full remaining order.
	for len(ref.a) > 0 {
		want, _ := ref.Pop()
		it, ok := h.pop()
		if !ok || it.Priority != want {
			t.Fatalf("drain Pop = (%d,%v), want %d", it.Priority, ok, want)
		}
	}
	if _, ok := h.pop(); ok {
		t.Fatal("heap non-empty after model drained")
	}
}

// TestDifferentialRandomOps drives the heap through long pseudo-random
// operation streams against the sorted-slice model — the property-test
// complement of the byte-driven fuzz target below.
func TestDifferentialRandomOps(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		r := rng.NewXoshiro256(99)
		var cov stashCoverage
		for round := 0; round < 20; round++ {
			data := make([]byte, 400)
			for i := range data {
				data[i] = byte(r.Next())
			}
			applyDifferentialOps(t, NewBinary(4), data, &cov)
		}
		for mode := 0; mode < keyModes; mode++ {
			applyDifferentialOps(t, NewBinary(4), modeStream(mode), &cov)
		}
		if cov.tailInsert == 0 || cov.pendingPush == 0 || cov.flushMerge == 0 || cov.pushFlush == 0 ||
			cov.bothParts == 0 || cov.pendingOnly == 0 || cov.bulkLoad == 0 ||
			cov.popAcross == 0 || cov.tailSpan == 0 || cov.chunkReuse == 0 {
			t.Fatalf("seeded streams missed a corner of the layout: %+v", cov)
		}
		t.Logf("corners reached: %+v", cov)
	})
}

// FuzzHeapDifferential is the coverage-guided entry point over the same
// driver; its seed corpus runs on every plain `go test` (and so under -race
// in CI), and `go test -fuzz=FuzzHeapDifferential ./internal/heap` explores
// further.
func FuzzHeapDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{3, 3, 3, 4, 4, 2, 0, 19, 24, 255, 254, 253})
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	for _, mode := range []int{keysAscending, keysDescending, keysEqual, keysThreshold} {
		f.Add(modeStream(mode))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		applyDifferentialOps(t, NewBinary(4), data, nil)
	})
}

// TestPushBatchHeapifyThreshold pins PushBatch's bulk-load threshold: a batch
// at least as large as what is stored is sorted and merged whole, a smaller
// one is routed item by item, and both sides of the threshold must leave a
// valid layout, report the true minimum and drain in exact sorted order.
func TestPushBatchHeapifyThreshold(t *testing.T) {
	for _, pre := range []int{0, 1, 7, 64} {
		for _, k := range []int{0, 1, pre, pre + 1, 4 * pre, 100} {
			r := rng.NewXoshiro256(uint64(pre*1000 + k))
			var want []uint64
			batch := make([]Item, 0, k)
			h := NewBinary(0)
			for i := 0; i < pre; i++ {
				p := r.Uint64n(512)
				h.Push(Item{Priority: p})
				want = append(want, p)
			}
			for i := 0; i < k; i++ {
				p := r.Uint64n(512)
				batch = append(batch, Item{Priority: p})
				want = append(want, p)
			}
			min, ok := h.PushBatch(batch)
			if !h.Verify() {
				t.Fatalf("pre=%d k=%d: heap invariant violated after PushBatch", pre, k)
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if wantOK := len(want) > 0; ok != wantOK || (wantOK && min.Priority != want[0]) {
				t.Fatalf("pre=%d k=%d: PushBatch min = (%d,%v), want %v", pre, k, min.Priority, ok, want)
			}
			got, _, ok := h.PopBatch(len(want)+1, nil)
			if ok {
				t.Fatalf("pre=%d k=%d: full drain still reports a minimum", pre, k)
			}
			if len(got) != len(want) {
				t.Fatalf("pre=%d k=%d: drained %d items, want %d", pre, k, len(got), len(want))
			}
			for i, w := range want {
				if got[i].Priority != w {
					t.Fatalf("pre=%d k=%d: drain[%d] = %d, want %d", pre, k, i, got[i].Priority, w)
				}
			}
		}
	}
}
