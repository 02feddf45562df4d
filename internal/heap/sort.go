package heap

import "math/bits"

// sortCutoff is the length at or below which a slice is insertion-sorted
// rather than split by a radix pass: a 256-bucket pass costs more than the
// ≈ n²/4 moves it would save on so few items.
const sortCutoff = 32

// sortDescending sorts s by priority, largest first, in place and without
// allocating; equal priorities end in no particular order. It is flush's sort
// of the pending heap, and it never compares two keys in a function call.
//
// One pass over s ORs and ANDs every key — the highest bit of or^and is the
// highest bit on which the keys differ, so the radix starts at the byte that
// holds it (48-bit keys skip two bytes, clock stamps five) — and notices a
// non-decreasing s, which it reverses and is done: FIFO stamps leave the
// pending heap ascending. Otherwise s is insertion-sorted when short and
// radix-sorted when not (radixSortDescending).
func sortDescending(s []Item) {
	if len(s) < 2 {
		return
	}
	prev := s[0].Priority
	or, and, ascending := prev, prev, true
	for _, it := range s[1:] {
		k := it.Priority
		or |= k
		and &= k
		if k < prev {
			ascending = false
		}
		prev = k
	}
	if ascending {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
		return
	}
	if len(s) <= sortCutoff {
		insertionSortDescending(s)
		return
	}
	radixSortDescending(s, uint(bits.Len64(or^and)-1)&^7)
}

// radixSortDescending sorts s, whose keys agree on every bit above the byte
// at shift, by that byte and then by the bytes below it: an MSD pass that
// counts the byte's values, lays the buckets out in descending byte order and
// moves every item into its bucket by following cycles of displaced items
// (American flag sort; McIlroy, Bostic and McIlroy, "Engineering Radix Sort",
// Computing Systems 6(1), 1993). Each bucket, once filled, recurses on the
// next byte if it holds more than sortCutoff items and is insertion-sorted
// otherwise; a byte on which all of s agrees is counted and skipped, with no
// moves, and the loops over buckets span only the byte values that occur.
// The two offset arrays (2 KiB) are the whole frame and each level is one
// byte further down, so the stack never holds more than eight of them.
func radixSortDescending(s []Item, shift uint) {
	var head, end [256]uint32
	var lo, hi byte // the smallest and largest value of the byte in s
	for {
		lo, hi = 255, 0
		for _, it := range s {
			d := byte(it.Priority >> shift)
			end[d]++
			lo, hi = min(lo, d), max(hi, d)
		}
		if lo < hi {
			break
		}
		if shift == 0 {
			return
		}
		end[lo] = 0
		shift -= 8
	}
	var off uint32
	for b := int(hi); b >= int(lo); b-- {
		head[b] = off
		off += end[b]
		end[b] = off
	}
	var start uint32
	for b := int(hi); b >= int(lo); b-- {
		for i := head[b]; i < end[b]; i = head[b] {
			it := s[i]
			for d := byte(it.Priority >> shift); d != byte(b); d = byte(it.Priority >> shift) {
				it, s[head[d]] = s[head[d]], it
				head[d]++
			}
			s[i] = it
			head[b]++
		}
		// Bucket b is complete — no later cycle writes into a full bucket —
		// so it is sorted now, while it is in cache.
		stop := end[b]
		switch n := stop - start; {
		case shift == 0 || n < 2: // one key, or one item
		case n > sortCutoff:
			radixSortDescending(s[start:stop], shift-8)
		default:
			insertionSortDescending(s[start:stop])
		}
		start = stop
	}
}

// insertionSortDescending sorts s by priority, largest first.
func insertionSortDescending(s []Item) {
	for i := 1; i < len(s); i++ {
		it := s[i]
		j := i
		for ; j > 0 && s[j-1].Priority < it.Priority; j-- {
			s[j] = s[j-1]
		}
		s[j] = it
	}
}
