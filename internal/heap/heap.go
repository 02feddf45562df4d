// Package heap provides the sequential priority-queue substrates that back
// the MultiQueue's per-queue storage: an array binary min-heap and a
// cache-line-friendly 4-ary min-heap (DAry), both with bulk batch operations
// and a sorted min-stash in front of the array (stash), and a pairing heap
// with node recycling.
//
// All order Items by Priority with ties broken by insertion order being
// irrelevant (the MultiQueue's timestamps are unique per enqueue, so ties
// occur only in synthetic tests). All are deliberately not concurrent; the
// internal/cpq package owns locking, mirroring the paper's assumption of "a
// set of m linearizable priority queues" built from sequential ones.
package heap

import "math"

// Item is a priority-queue entry: a 64-bit priority (smaller dequeues first)
// and an opaque 64-bit payload.
type Item struct {
	Priority uint64
	Value    uint64
}

// Interface is the sequential min-priority-queue contract shared by the
// binary heap, the pairing heap, the d-ary heap, and the skiplist adapter in
// internal/cpq.
type Interface interface {
	// Push inserts an item.
	Push(Item)
	// Pop removes and returns the minimum item; ok is false when empty.
	Pop() (it Item, ok bool)
	// Peek returns the minimum item without removing it; ok is false when
	// empty.
	Peek() (it Item, ok bool)
	// Len returns the number of stored items.
	Len() int
}

// BulkInterface is the optional extension array-backed heaps offer on top of
// Interface: whole-batch insert and drain without per-element interface
// dispatch. internal/cpq type-asserts for it at construction and routes
// AddBatch/DeleteMinUpTo through the bulk entry points when present, so
// backings that cannot implement it (pairing heap, skiplist) keep working
// through the per-element loop unchanged.
//
// Both batch operations report the post-batch minimum, so a caller that
// publishes a cached top (cpq's lock-free top word) gets it for free from
// the slot the batch pass already touched instead of paying one more
// interface dispatch for a trailing Peek inside its critical section.
type BulkInterface interface {
	Interface
	// PushBatch inserts every item of the batch, amortising invariant
	// maintenance over the whole batch (see DAry.PushBatch for the cost
	// model), and returns the post-batch minimum (ok false only when the
	// heap is empty, i.e. an empty batch into an empty heap). An empty
	// batch mutates nothing.
	PushBatch(items []Item) (min Item, ok bool)
	// PopBatch removes up to k minimum items, appending them to dst in
	// ascending priority order, and returns the extended slice plus the
	// post-drain minimum (ok false when the drain emptied the heap); it
	// stops early when the heap runs empty and leaves dst unchanged for
	// k <= 0.
	PopBatch(k int, dst []Item) (out []Item, min Item, ok bool)
}

// Binary is an array-backed binary min-heap behind a sorted min-stash (see
// stash): items below the array's minimum are kept in the stash and served
// from it, so they never pay a sift. The zero value is an empty heap;
// NewBinary preallocates capacity to keep the hot path allocation-free.
type Binary struct {
	a     []Item
	stash stash
}

// NewBinary returns an empty heap with the given capacity hint.
func NewBinary(capacity int) *Binary {
	return &Binary{a: make([]Item, 0, capacity)}
}

// Len returns the number of stored items.
func (h *Binary) Len() int { return h.stash.len() + len(h.a) }

// Push inserts an item: in O(log n) when it is at or above the array's
// minimum, by sorted insertion into the stash otherwise.
func (h *Binary) Push(it Item) {
	if it.Priority >= h.arrayMin() {
		h.a = append(h.a, it)
		h.up(len(h.a) - 1)
		return
	}
	if !h.stash.push(it) {
		h.PushBatch([]Item{it})
	}
}

// arrayMin returns the smallest priority in the array part, math.MaxUint64
// when it is empty: the threshold at and above which an insert belongs to the
// array rather than the stash.
func (h *Binary) arrayMin() uint64 {
	if len(h.a) == 0 {
		return math.MaxUint64
	}
	return h.a[0].Priority
}

// Peek returns the minimum item without removing it.
func (h *Binary) Peek() (Item, bool) {
	if it, ok := h.stash.min(); ok {
		return it, true
	}
	if len(h.a) == 0 {
		return Item{}, false
	}
	return h.a[0], true
}

// Pop removes and returns the minimum item: O(1) from the stash, O(log n)
// from the array once the stash is empty.
func (h *Binary) Pop() (Item, bool) {
	if it, ok := h.stash.pop(); ok {
		return it, true
	}
	if len(h.a) == 0 {
		return Item{}, false
	}
	min := h.a[0]
	h.popRoot()
	return min, true
}

// popRoot removes the array's minimum; the array must be non-empty.
func (h *Binary) popRoot() {
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	if last > 0 {
		h.down(0)
	}
}

// Reset empties the heap, retaining capacity.
func (h *Binary) Reset() {
	h.a = h.a[:0]
	h.stash.reset()
}

// PushBatch routes the batch through the stash (stash.route), appends what
// is bound for the array, then sifts each appended slot up its ancestor path
// — O(k·log n) over only the paths the batch dirtied — falling back to
// Floyd's O(n + k) heapify when the appended part rivals the existing array,
// and returns the post-batch minimum. It is Binary's BulkInterface entry
// point; see DAry.PushBatch for the cost model.
func (h *Binary) PushBatch(items []Item) (Item, bool) {
	old := len(h.a)
	h.a = h.stash.route(items, h.a, h.arrayMin())
	if len(h.a)-old >= old {
		for i := len(h.a)/2 - 1; i >= 0; i-- {
			h.down(i)
		}
	} else {
		for i := old; i < len(h.a); i++ {
			h.up(i)
		}
	}
	return h.Peek()
}

// PopBatch removes up to k minimum items, appending them to dst in ascending
// priority order and returning the extended slice plus the post-drain
// minimum, with no per-element interface dispatch: the stash's share is one
// contiguous copy, the rest comes off the array. It stops early when the heap
// runs empty; k <= 0 leaves dst unchanged.
func (h *Binary) PopBatch(k int, dst []Item) ([]Item, Item, bool) {
	dst, k = h.stash.drain(k, dst)
	for ; k > 0 && len(h.a) > 0; k-- {
		dst = append(dst, h.a[0])
		h.popRoot()
	}
	min, ok := h.Peek()
	return dst, min, ok
}

func (h *Binary) up(i int) {
	it := h.a[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent].Priority <= it.Priority {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = it
}

func (h *Binary) down(i int) {
	n := len(h.a)
	it := h.a[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h.a[r].Priority < h.a[l].Priority {
			least = r
		}
		if it.Priority <= h.a[least].Priority {
			break
		}
		h.a[i] = h.a[least]
		i = least
	}
	h.a[i] = it
}

// Verify checks the stash invariant (ascending, nothing above the array's
// minimum) and the heap invariant (parent <= children) and returns false at
// the first violation. Tests use it after randomized operation sequences.
func (h *Binary) Verify() bool {
	for i := 1; i < len(h.a); i++ {
		if h.a[(i-1)/2].Priority > h.a[i].Priority {
			return false
		}
	}
	return h.stash.verify(h.arrayMin())
}

// Static assertions: every heap satisfies Interface; the array-backed heaps
// additionally satisfy BulkInterface.
var (
	_ Interface     = (*Binary)(nil)
	_ Interface     = (*Pairing)(nil)
	_ Interface     = (*DAry)(nil)
	_ BulkInterface = (*Binary)(nil)
	_ BulkInterface = (*DAry)(nil)
)
