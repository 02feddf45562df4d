package heap

import "math"

// DAryWidth is the fan-out of DAry. Four children of node i occupy the
// contiguous slots 4i+1 … 4i+4; at 16 bytes per Item one sibling group is
// exactly 64 bytes, and the daryPad leading slots shift every group onto a
// 64-byte boundary, so a sift-down's min-of-children scan touches a single
// cache line where the binary heap's child pair plus grandchildren straddle
// several. The tree is also half as deep (log₄ n vs log₂ n), trading more
// comparisons per level — cheap, branch-predictable register work — for
// fewer cache-line visits, the right trade inside a spinlock critical
// section. See DESIGN.md §5 for the cost model.
const DAryWidth = 4

// daryPad is the number of unused leading slots in the backing array: node j
// lives at slot j+daryPad, placing each sibling group 4i+1 … 4i+4 at slots
// 4(i+1) … 4(i+1)+3 — byte offset 64·(i+1) from the array base. Go's
// allocator hands back 64-byte aligned storage for any slice of at least 512
// bytes (size classes from 512 up are multiples of 64 inside page-aligned
// spans), which every realistically sized queue clears, so the groups land
// on cache-line boundaries.
const daryPad = 3

// DAry is an implicit DAryWidth-ary array min-heap with cache-line aligned
// sibling groups — the cache-shaped alternative backing of ablation A4.
// Create with NewDAry.
//
// Beyond the plain Interface it implements BulkInterface: PushBatch inserts a
// whole batch with one sift pass over only the affected ancestor paths
// (falling back to Floyd heapify when the batch rivals the heap), and
// PopBatch drains a run of minima into a caller-owned slice with no
// per-element interface dispatch. internal/cpq detects these and routes
// AddBatch/DeleteMinUpTo through them.
type DAry struct {
	// a[:daryPad] is alignment padding; node j lives at a[daryPad+j].
	a     []Item
	stash stash
}

// NewDAry returns an empty heap with the given capacity hint.
func NewDAry(capacity int) *DAry {
	if capacity < 0 {
		capacity = 0
	}
	return &DAry{a: make([]Item, daryPad, daryPad+capacity)}
}

// Len returns the number of stored items.
func (h *DAry) Len() int { return h.stash.len() + h.nodes() }

// nodes returns the number of items in the array part.
func (h *DAry) nodes() int { return len(h.a) - daryPad }

// Push inserts an item: in O(log₄ n) when it is at or above the array's
// minimum, by sorted insertion into the stash otherwise.
func (h *DAry) Push(it Item) {
	if it.Priority >= h.arrayMin() {
		h.a = append(h.a, it)
		h.up(len(h.a) - 1 - daryPad)
		return
	}
	if !h.stash.push(it) {
		h.PushBatch([]Item{it})
	}
}

// arrayMin returns the smallest priority in the array part, math.MaxUint64
// when it is empty: the threshold at and above which an insert belongs to the
// array rather than the stash.
func (h *DAry) arrayMin() uint64 {
	if len(h.a) == daryPad {
		return math.MaxUint64
	}
	return h.a[daryPad].Priority
}

// Peek returns the minimum item without removing it.
func (h *DAry) Peek() (Item, bool) {
	if it, ok := h.stash.min(); ok {
		return it, true
	}
	if len(h.a) == daryPad {
		return Item{}, false
	}
	return h.a[daryPad], true
}

// Pop removes and returns the minimum item: O(1) from the stash, O(4·log₄ n)
// comparisons from the array once the stash is empty.
func (h *DAry) Pop() (Item, bool) {
	if it, ok := h.stash.pop(); ok {
		return it, true
	}
	if len(h.a) == daryPad {
		return Item{}, false
	}
	min := h.a[daryPad]
	h.popRoot()
	return min, true
}

// popRoot removes the array's minimum; the array must be non-empty.
func (h *DAry) popRoot() {
	last := len(h.a) - 1
	it := h.a[last]
	h.a = h.a[:last]
	if last > daryPad {
		h.sinkRoot(it)
	}
}

// PushBatch routes the batch through the stash (stash.route), appends what
// is bound for the array, then restores the heap invariant with one
// bottom-up pass: each appended slot sifts up its ancestor path, so the cost
// is O(k·log₄ n) touching only paths the batch actually dirtied. When the
// appended part rivals the existing array (k ≥ n) per-path sifting approaches
// O(n·log n) and PushBatch falls back to Floyd's heapify, which rebuilds the
// whole array in O(n + k). An empty batch mutates nothing.
func (h *DAry) PushBatch(items []Item) (Item, bool) {
	old := h.nodes()
	h.a = h.stash.route(items, h.a, h.arrayMin())
	if n := h.nodes(); n-old >= old {
		h.heapify()
	} else {
		for i := old; i < n; i++ {
			h.up(i)
		}
	}
	return h.Peek()
}

// PopBatch removes up to k minimum items, appending them to dst in ascending
// priority order, and returns the extended slice plus the post-drain minimum.
// The stash's share is one contiguous copy, the rest comes off the array. It
// stops early when the heap runs empty; k <= 0 leaves dst unchanged. Unlike k
// calls through Interface.Pop, the loop stays monomorphic — no interface
// dispatch per element — which is what cpq.DeleteMinUpTo's critical section
// wants.
func (h *DAry) PopBatch(k int, dst []Item) ([]Item, Item, bool) {
	dst, k = h.stash.drain(k, dst)
	for ; k > 0 && len(h.a) > daryPad; k-- {
		dst = append(dst, h.a[daryPad])
		h.popRoot()
	}
	min, ok := h.Peek()
	return dst, min, ok
}

// Reset empties the heap, retaining capacity.
func (h *DAry) Reset() {
	h.a = h.a[:daryPad]
	h.stash.reset()
}

// heapify rebuilds the invariant over the whole array in O(n) (Floyd's
// bottom-up construction): sift down every internal node, deepest first.
func (h *DAry) heapify() {
	n := h.nodes()
	if n < 2 {
		return
	}
	for i := (n - 2) / DAryWidth; i >= 0; i-- {
		h.down(i)
	}
}

// up sifts node i (0-based node index) toward the root.
func (h *DAry) up(i int) {
	it := h.a[daryPad+i]
	for i > 0 {
		parent := (i - 1) / DAryWidth
		if h.a[daryPad+parent].Priority <= it.Priority {
			break
		}
		h.a[daryPad+i] = h.a[daryPad+parent]
		i = parent
	}
	h.a[daryPad+i] = it
}

// sinkRoot refills an emptied root with it using Wegener's bottom-up
// deletion: the hole sinks along the min-child path all the way to a leaf —
// three comparisons per level among the cache-line-aligned sibling group,
// never against it — and it then bubbles up from the leaf. The displaced
// element is the array's last slot, a recent insertion that under the
// MultiQueue's monotone clock stamps belongs near the bottom, so the
// bubble-up almost always stops within a step; versus the classic top-down
// sift this drops the fourth per-level comparison and its hard-to-predict
// early-exit branch from the PopBatch drain loop.
func (h *DAry) sinkRoot(it Item) {
	n := h.nodes()
	hole := 0
	for {
		first := DAryWidth*hole + 1
		if first >= n {
			break
		}
		last := first + DAryWidth
		if last > n {
			last = n
		}
		least := first
		leastV := h.a[daryPad+first].Priority
		for c := first + 1; c < last; c++ {
			if v := h.a[daryPad+c].Priority; v < leastV {
				least, leastV = c, v
			}
		}
		h.a[daryPad+hole] = h.a[daryPad+least]
		hole = least
	}
	h.a[daryPad+hole] = it
	h.up(hole)
}

// down sifts node i (0-based node index) toward the leaves.
func (h *DAry) down(i int) {
	n := h.nodes()
	it := h.a[daryPad+i]
	for {
		first := DAryWidth*i + 1
		if first >= n {
			break
		}
		last := first + DAryWidth
		if last > n {
			last = n
		}
		least := first
		leastV := h.a[daryPad+first].Priority
		for c := first + 1; c < last; c++ {
			if v := h.a[daryPad+c].Priority; v < leastV {
				least, leastV = c, v
			}
		}
		if it.Priority <= leastV {
			break
		}
		h.a[daryPad+i] = h.a[daryPad+least]
		i = least
	}
	h.a[daryPad+i] = it
}

// Verify checks the stash invariant (ascending, nothing above the array's
// minimum) and the heap invariant (parent <= children) and returns false at
// the first violation. Tests use it after randomized operation sequences.
func (h *DAry) Verify() bool {
	n := h.nodes()
	for i := 1; i < n; i++ {
		if h.a[daryPad+(i-1)/DAryWidth].Priority > h.a[daryPad+i].Priority {
			return false
		}
	}
	return h.stash.verify(h.arrayMin())
}
