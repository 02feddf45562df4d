package balance

import (
	"sort"

	"repro/internal/rng"
)

// SeqMultiQueue is the sequential producer–consumer process of Alistarh,
// Kopinsky, Li and Nadiradze ("The power of choice in priority scheduling",
// reference [3]): balls labelled 1, 2, 3, … are inserted uniformly at random
// into m bins, each bin keeping its balls sorted; removals pick two uniform
// bins and delete the lower-labelled (higher-priority) of the two heads.
//
// This process is the sequential randomized relaxation QR that Theorem 7.1
// linearizes the concurrent MultiQueue to; its guarantee — the rank of a
// removed label among labels still present is O(m) in expectation and
// O(m log m) w.h.p. — is the cost distribution the concurrent structure
// inherits. The DeleteTwoChoice method returns the exact rank so experiments
// can compare the empirical distribution against the concurrent runs.
type SeqMultiQueue struct {
	bins  [][]uint64 // each bin ascending; head is bins[i][0]
	next  uint64     // next label to insert
	count int        // total balls present
}

// NewSeqMultiQueue returns the process with m empty bins.
func NewSeqMultiQueue(m int) *SeqMultiQueue {
	if m <= 0 {
		panic("balance: NewSeqMultiQueue needs m > 0")
	}
	return &SeqMultiQueue{bins: make([][]uint64, m), next: 1}
}

// Insert places the next sequential label into a uniformly random bin.
// Labels are inserted in increasing order, so appending keeps bins sorted.
func (q *SeqMultiQueue) Insert(r *rng.Xoshiro256) uint64 {
	i := r.Intn(len(q.bins))
	label := q.next
	q.next++
	q.bins[i] = append(q.bins[i], label)
	q.count++
	return label
}

// DeleteTwoChoice removes the lower-labelled of two random bins' heads and
// returns the removed label together with its rank among all labels present
// at removal time (rank 1 = the global minimum; an exact priority queue
// always removes rank 1). ok is false if both chosen bins were empty.
func (q *SeqMultiQueue) DeleteTwoChoice(r *rng.Xoshiro256) (label uint64, rank int, ok bool) {
	i, j := r.Intn(len(q.bins)), r.Intn(len(q.bins))
	bi, bj := q.bins[i], q.bins[j]
	pick := -1
	switch {
	case len(bi) == 0 && len(bj) == 0:
		return 0, 0, false
	case len(bi) == 0:
		pick = j
	case len(bj) == 0:
		pick = i
	case bi[0] <= bj[0]:
		pick = i
	default:
		pick = j
	}
	label = q.bins[pick][0]
	rank = q.rankOf(label)
	q.bins[pick] = q.bins[pick][1:]
	q.count--
	return label, rank, true
}

// rankOf counts the labels present that are strictly smaller than label,
// plus one. Bins are sorted, so each contributes a prefix found by binary
// search; total cost O(m log(b/m)).
func (q *SeqMultiQueue) rankOf(label uint64) int {
	smaller := 0
	for _, b := range q.bins {
		smaller += sort.Search(len(b), func(k int) bool { return b[k] >= label })
	}
	return smaller + 1
}

// HeadGapRank returns the rank gap between the smallest and largest head
// labels across non-empty bins — the O(log m) quantity from Section 7's
// analysis ("the rank gap between the smallest timestamp head element of any
// queue and the largest timestamp head element"). ok is false when fewer
// than two bins are non-empty.
func (q *SeqMultiQueue) HeadGapRank() (gap int, ok bool) {
	var minHead, maxHead uint64
	seen := 0
	for _, b := range q.bins {
		if len(b) == 0 {
			continue
		}
		h := b[0]
		if seen == 0 {
			minHead, maxHead = h, h
		} else {
			if h < minHead {
				minHead = h
			}
			if h > maxHead {
				maxHead = h
			}
		}
		seen++
	}
	if seen < 2 {
		return 0, false
	}
	return q.rankOf(maxHead) - q.rankOf(minHead), true
}
