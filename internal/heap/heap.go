// Package heap provides Binary, the sequential priority queue that backs each
// of the MultiQueue's shards: a sorted run in fixed-size chunks, popped by
// truncation, plus a bounded heap of pending inserts that a flush sorts by key
// bytes (an in-place radix sort that allocates nothing and never calls a
// comparator: sortDescending), with whole-batch insert and drain entry points
// that report the post-batch minimum.
//
// Items are ordered by Priority; the order among equal priorities is
// unspecified (the MultiQueue's timestamps are unique per enqueue, so ties
// occur only in synthetic tests). Binary is deliberately not concurrent; the
// internal/cpq package owns locking, mirroring the paper's assumption of "a
// set of m linearizable priority queues" built from sequential ones.
package heap

import (
	"cmp"
	"math"
)

// Item is a priority-queue entry: a 64-bit priority (smaller dequeues first)
// and an opaque 64-bit payload.
type Item struct {
	Priority uint64
	Value    uint64
}

// Compare orders items by priority, then by value: the total order in which
// the journal stores and folds them (Binary needs only the priority).
func (a Item) Compare(b Item) int {
	if c := cmp.Compare(a.Priority, b.Priority); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// stashRun is how many items of a batch bound for the tail of Binary's
// sorted run are sorted and merged at a time: the batch is caller-owned and
// must not be reordered, so each run is copied into a stack array of this
// size first. Handle batches (k ≤ 16 in every shipped configuration) fit in
// one run.
const stashRun = 16

// tailWindow is how far from the minimum end of Binary's sorted part an
// insert may land: a key at most the tailWindow-th smallest sorted key is
// merged into the tail, every other key waits in the pending heap. It is the
// size of the min-stash EXPERIMENTS.md §14 swept and also the floor of the
// flush thresholds; the sweep that kept it is EXPERIMENTS.md §16.
const tailWindow = 64

// flushDiv and pendingDiv set the two flush thresholds: a pop merges the
// pending heap into the run once it holds 1/flushDiv of the run, and a push
// that finds it holding 1/pendingDiv flushes first. A pop-side flush's O(n)
// moves cost at most flushDiv per pending push; the push-side bound keeps an
// insert-only fill to pendingDiv + 1 moves per insert and the pending array
// to about 1/pendingDiv of the run. Swept in EXPERIMENTS.md §16 and §36.
const (
	flushDiv   = 16
	pendingDiv = 4
)

// The sorted run is stored in chunks of 1<<chunkShift items (4 KiB): item i
// is run[i>>chunkShift][i&chunkMask].
const (
	chunkShift = 8
	chunkMask  = 1<<chunkShift - 1
)

// Binary is the per-queue store: a sorted run and a bounded pending heap.
// The run is sorted descending, so popping its minimum is a truncation; p is
// a binary min-heap of items not yet merged into it. An insert near the
// run's minimum (see tailWindow) is merged into the run's tail, any other is
// pushed onto p, and a flush sorts p and merges it into the run. No order
// holds between the two — every pop compares both minima — so Verify checks
// each on its own. Chunks that pops free stay in the table for later merges,
// so a queue allocates only when it reaches a new high-water size. The zero
// value is an empty queue that holds no element storage. See DESIGN.md §5.
type Binary struct {
	run []*[chunkMask + 1]Item
	n   int // items in the run
	p   []Item
	// moved counts the items flush has written, for the tests' bound on
	// amortised flush work; nothing on the hot path touches it.
	moved uint64
}

// NewBinary returns an empty queue for a queue that stands alone (the
// MultiQueue's shards start as the zero value), with the chunks a run of
// capacity items needs allocated up front.
func NewBinary(capacity int) *Binary {
	h := new(Binary)
	h.grow(capacity)
	return h
}

// Len returns the number of stored items.
func (h *Binary) Len() int { return h.n + len(h.p) }

// at returns the run's item i.
func (h *Binary) at(i int) *Item { return &h.run[i>>chunkShift][i&chunkMask] }

// grow allocates chunks until the table holds a run of n items.
func (h *Binary) grow(n int) {
	for len(h.run)<<chunkShift < n {
		h.run = append(h.run, new([chunkMask + 1]Item))
	}
}

// Push inserts an item: by sorted insertion into the tail of the run when it
// is within tailWindow of the minimum, onto the pending heap otherwise. A
// push that finds the pending heap full flushes it first.
func (h *Binary) Push(it Item) {
	if h.flushDue(pendingDiv) {
		h.flush()
	}
	if it.Priority > h.tailThreshold() {
		h.pushPending(it)
		return
	}
	h.merge([]Item{it})
}

// Peek returns the minimum item without removing it.
func (h *Binary) Peek() (Item, bool) {
	if len(h.p) > 0 && (h.n == 0 || h.p[0].Priority < h.at(h.n-1).Priority) {
		return h.p[0], true
	}
	if h.n == 0 {
		return Item{}, false
	}
	return *h.at(h.n - 1), true
}

// AppendTo appends every stored item to dst — the run, descending, then the
// pending heap in heap order — and returns the extended slice; the queue
// itself is left unchanged.
func (h *Binary) AppendTo(dst []Item) []Item {
	for i := 0; i < h.n; i += chunkMask + 1 {
		dst = append(dst, h.run[i>>chunkShift][:min(chunkMask+1, h.n-i)]...)
	}
	return append(dst, h.p...)
}

// PushBatch inserts the batch and returns the post-batch minimum: the items
// within tailWindow of the minimum are insertion-sorted into a stack run (the
// batch is caller-owned and is not reordered) and merged backward into the
// run's tail, stashRun at a time; the rest are pushed onto the pending heap,
// which is flushed first if full. A batch that rivals what is stored is
// sorted and merged whole instead. An empty batch mutates nothing; ok is
// false only for an empty queue.
func (h *Binary) PushBatch(items []Item) (Item, bool) {
	if len(items) >= stashRun && len(items) >= h.Len() {
		h.p = append(h.p, items...)
		h.flush()
		return h.Peek()
	}
	if len(items) > 0 && h.flushDue(pendingDiv) {
		h.flush()
	}
	thr := h.tailThreshold()
	var run [stashRun]Item
	n := 0
	for _, it := range items {
		if it.Priority > thr {
			h.pushPending(it)
			continue
		}
		i := n
		for ; i > 0 && run[i-1].Priority < it.Priority; i-- {
			run[i] = run[i-1]
		}
		run[i] = it
		if n++; n == stashRun {
			h.merge(run[:n])
			thr = h.tailThreshold()
			n = 0
		}
	}
	if n > 0 {
		h.merge(run[:n])
	}
	return h.Peek()
}

// tailThreshold returns the largest priority an insert may have and still be
// merged into the run's tail: the tailWindow-th smallest key of the run, and
// no limit while the run is shorter than that.
func (h *Binary) tailThreshold() uint64 {
	if h.n >= tailWindow {
		return h.at(h.n - tailWindow).Priority
	}
	return math.MaxUint64
}

// merge merges the descending items src into the run, backward from the
// minimum end one chunk at a time, stops as soon as src is placed — the run's
// items above it stay where they are — and returns the number of slots
// written. src must not alias the run.
func (h *Binary) merge(src []Item) int {
	i, j := h.n-1, len(src)-1
	h.n += len(src)
	h.grow(h.n)
	w := h.n - 1
	for j >= 0 {
		ws := h.run[w>>chunkShift][:w&chunkMask+1]
		x := len(ws) - 1
		if i < 0 { // the rest of src goes below every run item
			c := min(x, j) + 1
			copy(ws[x+1-c:], src[j+1-c:j+1])
			j, w = j-c, w-c
			continue
		}
		rs := h.run[i>>chunkShift][:i&chunkMask+1]
		y := len(rs) - 1
		for ; x >= 0 && y >= 0 && j >= 0; x-- {
			if rs[y].Priority < src[j].Priority {
				ws[x] = rs[y]
				y--
			} else {
				ws[x] = src[j]
				j--
			}
		}
		w -= len(ws) - 1 - x
		i -= len(rs) - 1 - y
	}
	return h.n - 1 - w
}

// PopBatch removes up to k minimum items, appending them to dst in ascending
// priority order and returning the extended slice plus the post-drain
// minimum. When nothing pending is below the k-th smallest of the run the
// batch is the run's last k items reversed and a truncation; otherwise each
// item is the smaller of the two parts' minima. A flush, if due, comes first.
// It stops early when the queue runs empty; k <= 0 leaves dst unchanged.
func (h *Binary) PopBatch(k int, dst []Item) ([]Item, Item, bool) {
	if h.flushDue(flushDiv) {
		h.flush()
	}
	for n := h.n; k > 0; k-- {
		if len(h.p) == 0 || (n >= k && h.p[0].Priority >= h.at(n-k).Priority) {
			k = min(k, n)
			for i := n - 1; i >= n-k; i-- {
				dst = append(dst, *h.at(i))
			}
			h.n = n - k
			break
		}
		if n == 0 || h.p[0].Priority < h.at(n-1).Priority {
			dst = append(dst, h.popPending())
		} else {
			n--
			dst = append(dst, *h.at(n))
			h.n = n
		}
	}
	min, ok := h.Peek()
	return dst, min, ok
}

// flushDue reports whether the pending heap has reached a flush threshold,
// max(tailWindow, n/div) for n the run's length: div is flushDiv on the pop
// side and pendingDiv on the push side.
func (h *Binary) flushDue(div int) bool {
	return len(h.p) >= tailWindow && len(h.p) >= h.n/div
}

// flush sorts the pending items (whatever order they are in) and merges them
// into the run, leaving the pending heap empty with its array kept. O(n +
// len(p)·w) for n the run's length and w the bytes on which the pending keys
// differ (sortDescending).
func (h *Binary) flush() {
	sortDescending(h.p)
	h.moved += uint64(h.merge(h.p))
	h.p = h.p[:0]
}

func (h *Binary) pushPending(it Item) {
	h.p = append(h.p, it)
	h.up(len(h.p) - 1)
}

// popPending removes and returns the root of the pending heap, which must be
// non-empty.
func (h *Binary) popPending() Item {
	min := h.p[0]
	last := len(h.p) - 1
	h.p[0] = h.p[last]
	h.p = h.p[:last]
	if last > 1 {
		h.down(0)
	}
	return min
}

// up and down are the sifts of the pending heap.
func (h *Binary) up(i int) {
	it := h.p[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.p[parent].Priority <= it.Priority {
			break
		}
		h.p[i] = h.p[parent]
		i = parent
	}
	h.p[i] = it
}

func (h *Binary) down(i int) {
	n := len(h.p)
	it := h.p[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h.p[r].Priority < h.p[l].Priority {
			least = r
		}
		if it.Priority <= h.p[least].Priority {
			break
		}
		h.p[i] = h.p[least]
		i = least
	}
	h.p[i] = it
}
