package heap

// stashCap is the capacity of the sorted min-stash DAry carries in front of
// its array: 64 Items = 1 KiB, inline in the heap struct, so a shard costs no
// second allocation. It is a constant, not an option; the size sweep that
// picked it is EXPERIMENTS.md §14.
const stashCap = 64

// stashRun is how many items of a batch bound for the stash (for Binary: for
// the tail of its sorted run) are sorted and merged at a time: the batch is
// caller-owned and must not be reordered, so each run is copied into a stack
// array of this size first. Handle batches (k ≤ 16 in every shipped
// configuration) fit in one run.
const stashRun = 16

// stash is a short ascending run of items that are all ≤ the minimum of the
// heap array behind it, so stash ∪ heap is still an exact priority queue
// whose minimum is the stash's first item. It is the insertion/deletion
// buffer of Williams, Sanders & Dementiev's engineered MultiQueue folded into
// one array: an insert below the heap minimum lands here by sorted insertion
// instead of sifting from a leaf to the root, and the pop that takes it a
// moment later is an index bump instead of a root-to-leaf sift. Pops never
// refill the stash from the heap — that would be exactly the sift the stash
// exists to avoid — so traffic whose inserts are ≥ everything stored (FIFO
// clock stamps) leaves it permanently empty at the price of one compare.
//
// The live items are buf[lo:hi]. Pops advance lo; inserts merge backward
// into the free tail, sliding the run to the front first when the tail is
// too short. See DESIGN.md §5.
type stash struct {
	lo, hi int
	buf    [stashCap]Item
}

func (s *stash) len() int { return s.hi - s.lo }

func (s *stash) reset() { s.lo, s.hi = 0, 0 }

// min returns the stash's smallest item; ok is false when it is empty.
func (s *stash) min() (Item, bool) {
	if s.lo == s.hi {
		return Item{}, false
	}
	return s.buf[s.lo], true
}

// pop removes and returns the stash's smallest item.
func (s *stash) pop() (Item, bool) {
	if s.lo == s.hi {
		return Item{}, false
	}
	it := s.buf[s.lo]
	s.lo++
	return it, true
}

// push places one item by sorted insertion and reports whether it could: a
// stash whose free tail is used up (full, or due a slide to the front)
// declines, and the caller takes the batch path, which handles both.
func (s *stash) push(it Item) bool {
	if s.hi == stashCap {
		return false
	}
	i := s.hi
	for ; i > s.lo && s.buf[i-1].Priority > it.Priority; i-- {
		s.buf[i] = s.buf[i-1]
	}
	s.buf[i] = it
	s.hi++
	return true
}

// drain moves up to k of the smallest items onto dst with one contiguous
// copy and returns the extended slice and how many of the k are still owed.
func (s *stash) drain(k int, dst []Item) ([]Item, int) {
	n := s.len()
	if n > k {
		n = k
	}
	if n > 0 {
		dst = append(dst, s.buf[s.lo:s.lo+n]...)
		s.lo += n
		k -= n
	}
	return dst, k
}

// route is DAry's insert path. Every item below the array's
// minimum hm (math.MaxUint64 standing for an empty array) is merged into the
// stash, run by run; the rest, and whatever the full stash spills, is
// appended to heap unsifted. The caller restores the heap invariant over the
// appended tail. items is not modified.
func (s *stash) route(items, heap []Item, hm uint64) []Item {
	var run [stashRun]Item
	n := 0
	for _, it := range items {
		if it.Priority >= hm {
			heap = append(heap, it)
			continue
		}
		// Insertion-sort the item into the run.
		i := n
		for ; i > 0 && run[i-1].Priority > it.Priority; i-- {
			run[i] = run[i-1]
		}
		run[i] = it
		if n++; n == stashRun {
			before := len(heap)
			heap = s.merge(run[:n], heap)
			if len(heap) > before {
				hm = heap[len(heap)-1].Priority // the smallest spilled item
			}
			n = 0
		}
	}
	if n > 0 {
		heap = s.merge(run[:n], heap)
	}
	return heap
}

// merge folds an ascending run of at most stashCap items into the stash,
// first spilling the largest items of stash ∪ run onto heap, in descending
// order and only as many as do not fit. Everything in the stash and the run
// is ≤ the array's minimum, so the spill becomes its new minimum and the
// invariant max(stash) ≤ min(array) survives.
func (s *stash) merge(run, heap []Item) []Item {
	j := len(run)
	for over := s.len() + j - stashCap; over > 0; over-- {
		if j == 0 || (s.hi > s.lo && s.buf[s.hi-1].Priority > run[j-1].Priority) {
			s.hi--
			heap = append(heap, s.buf[s.hi])
		} else {
			j--
			heap = append(heap, run[j])
		}
	}
	if s.hi+j > stashCap {
		s.hi = copy(s.buf[:], s.buf[s.lo:s.hi])
		s.lo = 0
	}
	// Backward merge into the free tail; stops as soon as the run is placed,
	// leaving the stash items below it where they are.
	i, w := s.hi-1, s.hi+j-1
	s.hi += j
	for ; j > 0; w-- {
		if i >= s.lo && s.buf[i].Priority > run[j-1].Priority {
			s.buf[w] = s.buf[i]
			i--
		} else {
			j--
			s.buf[w] = run[j]
		}
	}
	return heap
}

// verify checks the stash half of the invariant: ascending, and no larger
// than the array's minimum hm (math.MaxUint64 for an empty array).
func (s *stash) verify(hm uint64) bool {
	if s.lo < 0 || s.lo > s.hi || s.hi > stashCap {
		return false
	}
	for i := s.lo + 1; i < s.hi; i++ {
		if s.buf[i-1].Priority > s.buf[i].Priority {
			return false
		}
	}
	return s.lo == s.hi || s.buf[s.hi-1].Priority <= hm
}
