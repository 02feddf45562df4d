// Package heap provides Binary, the sequential priority queue that backs each
// of the MultiQueue's shards: a sorted run popped by truncation plus a small
// heap of pending inserts that a flush sorts by key bytes (an in-place radix
// sort that allocates nothing and never calls a comparator: sortDescending),
// with whole-batch insert and drain entry points that report the post-batch
// minimum.
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
// flush threshold; the sweep that kept it is EXPERIMENTS.md §16.
const tailWindow = 64

// flushDiv sets the flush threshold: a pop merges the pending heap into the
// sorted part once it holds at least 1/flushDiv of it, so a flush's O(n)
// moves cost at most flushDiv per pending push, and the pending array is at
// most 2/flushDiv of the run's. Swept in EXPERIMENTS.md §16.
const flushDiv = 16

// Binary is the per-queue store: a sorted run and a small pending
// heap. a is sorted descending, so the minimum of the run is its last item
// and popping it is a truncation; p is a binary min-heap of items not yet
// merged into a. An insert near the run's minimum (see tailWindow) is merged
// into a's tail, any other is pushed onto p, and a pop that finds p grown to
// 1/flushDiv of a sorts p and merges the two (flush). No order holds between
// a and p — every pop compares both minima, tailWindow only decides which
// part is cheaper for an insert — so Verify checks each part on its own. The
// zero value is an empty queue whose arrays grow by append as items arrive;
// once they have grown to a workload's working size the hot path allocates
// nothing. See DESIGN.md §5.
type Binary struct {
	a []Item
	p []Item
	// moved counts the items flush has written, for the tests' bound on
	// amortised flush work; nothing on the hot path touches it.
	moved uint64
}

// NewBinary returns an empty queue with the given capacity hint for a queue
// that stands alone (the MultiQueue's shards start as the zero value). The
// hint sizes the pending array: a queue filled by inserts alone collects
// nearly all of them there, and the first pop adopts that array as the run
// (a hint spent on the run instead is an array the fill never uses and an
// adoption that must grow the other one: EXPERIMENTS.md §16).
func NewBinary(capacity int) *Binary {
	return &Binary{p: make([]Item, 0, capacity)}
}

// Len returns the number of stored items.
func (h *Binary) Len() int { return len(h.a) + len(h.p) }

// Push inserts an item: by sorted insertion into the tail of the run when it
// is within tailWindow of the minimum, onto the pending heap otherwise.
func (h *Binary) Push(it Item) {
	if it.Priority > h.tailThreshold() {
		h.pushPending(it)
		return
	}
	i := len(h.a)
	h.a = append(h.a, it)
	for ; i > 0 && h.a[i-1].Priority < it.Priority; i-- {
		h.a[i] = h.a[i-1]
	}
	h.a[i] = it
}

// Peek returns the minimum item without removing it.
func (h *Binary) Peek() (Item, bool) {
	n := len(h.a)
	if len(h.p) > 0 && (n == 0 || h.p[0].Priority < h.a[n-1].Priority) {
		return h.p[0], true
	}
	if n == 0 {
		return Item{}, false
	}
	return h.a[n-1], true
}

// AppendTo appends every stored item to dst — the run, descending, then the
// pending heap in heap order — and returns the extended slice; the queue
// itself is left unchanged.
func (h *Binary) AppendTo(dst []Item) []Item { return append(append(dst, h.a...), h.p...) }

// PushBatch inserts the batch and returns the post-batch minimum: the items
// within tailWindow of the minimum are insertion-sorted into a stack run (the
// batch is caller-owned and is not reordered) and merged backward into the
// run's tail, stashRun at a time; the rest are pushed onto the pending heap.
// A batch that rivals what is stored is sorted and merged whole instead. An
// empty batch mutates nothing; ok is false only for an empty queue.
func (h *Binary) PushBatch(items []Item) (Item, bool) {
	if len(items) >= stashRun && len(items) >= h.Len() {
		h.p = append(h.p, items...)
		h.flush()
		return h.Peek()
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
			h.a, _ = mergeDescending(h.a, run[:n])
			thr = h.tailThreshold()
			n = 0
		}
	}
	if n > 0 {
		h.a, _ = mergeDescending(h.a, run[:n])
	}
	return h.Peek()
}

// tailThreshold returns the largest priority an insert may have and still be
// merged into the run's tail: the tailWindow-th smallest key of the run, and
// no limit while the run is shorter than that.
func (h *Binary) tailThreshold() uint64 {
	if n := len(h.a); n >= tailWindow {
		return h.a[n-tailWindow].Priority
	}
	return math.MaxUint64
}

// mergeDescending merges the descending run into the descending slice a,
// backward from the minimum end, stops as soon as the run is placed — the
// items of a above it stay where they are — and returns the merged slice and
// the number of slots written. run must not alias a's spare capacity.
func mergeDescending(a, run []Item) ([]Item, int) {
	i := len(a) - 1
	a = append(a, run...)
	w := len(a) - 1
	for j := len(run) - 1; j >= 0; w-- {
		if i >= 0 && a[i].Priority < run[j].Priority {
			a[w] = a[i]
			i--
		} else {
			a[w] = run[j]
			j--
		}
	}
	return a, len(a) - 1 - w
}

// PopBatch removes up to k minimum items, appending them to dst in ascending
// priority order and returning the extended slice plus the post-drain
// minimum. When nothing pending is below the k-th smallest of the run the
// batch is the run's last k items reversed and a truncation; otherwise each
// item is the smaller of the two parts' minima. A flush, if due, comes first.
// It stops early when the queue runs empty; k <= 0 leaves dst unchanged.
func (h *Binary) PopBatch(k int, dst []Item) ([]Item, Item, bool) {
	if len(h.p) > 0 && h.flushDue() {
		h.flush()
	}
	for n := len(h.a); k > 0; k-- {
		if len(h.p) == 0 || (n >= k && h.p[0].Priority >= h.a[n-k].Priority) {
			if k > n {
				k = n
			}
			for i := n - 1; i >= n-k; i-- {
				dst = append(dst, h.a[i])
			}
			h.a = h.a[:n-k]
			break
		}
		if n == 0 || h.p[0].Priority < h.a[n-1].Priority {
			dst = append(dst, h.popPending())
		} else {
			n--
			dst = append(dst, h.a[n])
			h.a = h.a[:n]
		}
	}
	min, ok := h.Peek()
	return dst, min, ok
}

// flushDue reports whether the pending heap has reached the flush threshold,
// max(tailWindow, len(a)/flushDiv). Only pops ask: a run of inserts never
// pays for a flush, the first pop after it does.
func (h *Binary) flushDue() bool {
	return len(h.p) >= tailWindow && len(h.p) >= len(h.a)/flushDiv
}

// flush sorts the pending items (whatever order they are in) and merges the
// shorter of the two parts into the longer one's array, backward from the
// minimum end, so a queue filled by inserts alone has its pending array
// adopted as the run instead of copied beside it. The other array becomes the
// empty pending heap. O(len(a) + len(p)·w) for w the bytes on which the
// pending keys differ (sortDescending).
func (h *Binary) flush() {
	sortDescending(h.p)
	long, short := h.a, h.p
	if len(short) > len(long) {
		long, short = short, long
	}
	long, moved := mergeDescending(long, short)
	h.moved += uint64(moved)
	h.a, h.p = long, short[:0]
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
