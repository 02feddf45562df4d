package balance

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestSeqMultiQueueInsertDrain(t *testing.T) {
	q := NewSeqMultiQueue(8)
	r := rng.NewXoshiro256(1)
	const n = 1000
	for i := 0; i < n; i++ {
		q.Insert(r)
	}
	if q.count != n {
		t.Fatalf("count = %d", q.count)
	}
	removed := map[uint64]bool{}
	for q.count > 0 {
		label, rank, ok := q.DeleteTwoChoice(r)
		if !ok {
			continue // both sampled bins empty; retry
		}
		if removed[label] {
			t.Fatalf("label %d removed twice", label)
		}
		if rank < 1 {
			t.Fatalf("rank %d < 1", rank)
		}
		removed[label] = true
	}
	if len(removed) != n {
		t.Fatalf("removed %d labels, want %d", len(removed), n)
	}
}

func TestSeqMultiQueueRankOfIsExact(t *testing.T) {
	// Cross-check rankOf against a brute-force count over bin contents.
	q := NewSeqMultiQueue(4)
	r := rng.NewXoshiro256(2)
	for i := 0; i < 200; i++ {
		q.Insert(r)
	}
	// Remove a few to create holes.
	for i := 0; i < 50; i++ {
		q.DeleteTwoChoice(r)
	}
	for _, label := range []uint64{1, 10, 100, 150, 200} {
		naive := 1
		for _, b := range q.bins {
			for _, v := range b {
				if v < label {
					naive++
				}
			}
		}
		if got := q.rankOf(label); got != naive {
			t.Fatalf("rankOf(%d) = %d, naive %d", label, got, naive)
		}
	}
}

// TestSeqMultiQueueRankLinearInM is the empirical Theorem 7.1 / [3] check:
// steady-state expected dequeue rank is O(m) and the tail is O(m log m).
func TestSeqMultiQueueRankLinearInM(t *testing.T) {
	for _, m := range []int{8, 32, 128} {
		q := NewSeqMultiQueue(m)
		r := rng.NewXoshiro256(3)
		// Prefill a large buffer so removals never exhaust the bins
		// (Section 7's buffer assumption).
		for i := 0; i < 50*m; i++ {
			q.Insert(r)
		}
		ranks := stats.NewSample(10_000)
		for i := 0; i < 10_000; i++ {
			q.Insert(r)
			if _, rank, ok := q.DeleteTwoChoice(r); ok {
				ranks.AddInt(rank)
			}
		}
		mean := ranks.Mean()
		if mean > 4*float64(m) {
			t.Fatalf("mean rank %v not O(m) at m=%d", mean, m)
		}
		if p999 := ranks.Quantile(0.999); p999 > 4*float64(m)*log2(m) {
			t.Fatalf("p99.9 rank %v not O(m log m) at m=%d", p999, m)
		}
	}
}

func TestSeqMultiQueueBeatsRandomRemoval(t *testing.T) {
	// Sanity: two-choice removal has much lower rank than removing the head
	// of one random bin would (which is what one-choice removal does). We
	// compare against m·H_m/2-ish by checking the two-choice mean is below
	// 2m while a single random head has expected rank about m.
	m := 64
	q := NewSeqMultiQueue(m)
	r := rng.NewXoshiro256(4)
	for i := 0; i < 50*m; i++ {
		q.Insert(r)
	}
	ranks := stats.NewSample(5000)
	for i := 0; i < 5000; i++ {
		q.Insert(r)
		if _, rank, ok := q.DeleteTwoChoice(r); ok {
			ranks.AddInt(rank)
		}
	}
	if ranks.Mean() >= 2*float64(m) {
		t.Fatalf("two-choice mean rank %v >= 2m", ranks.Mean())
	}
}

func TestHeadGapRank(t *testing.T) {
	q := NewSeqMultiQueue(4)
	r := rng.NewXoshiro256(5)
	if _, ok := q.HeadGapRank(); ok {
		t.Fatal("HeadGapRank on empty should be !ok")
	}
	for i := 0; i < 400; i++ {
		q.Insert(r)
	}
	gap, ok := q.HeadGapRank()
	if !ok {
		t.Fatal("HeadGapRank not ok with populated bins")
	}
	if gap < 0 || gap > q.count {
		t.Fatalf("gap %d out of range", gap)
	}
}

// TestHeadGapRankStaysLogarithmic checks Section 7's head-gap claim: the
// rank gap between the smallest and largest head is O(log m)·const in steady
// state (we use a generous constant envelope).
func TestHeadGapRankStaysLogarithmic(t *testing.T) {
	m := 64
	q := NewSeqMultiQueue(m)
	r := rng.NewXoshiro256(6)
	for i := 0; i < 100*m; i++ {
		q.Insert(r)
	}
	var maxGap int
	for i := 0; i < 20_000; i++ {
		q.Insert(r)
		q.DeleteTwoChoice(r)
		if i%500 == 0 {
			if g, ok := q.HeadGapRank(); ok && g > maxGap {
				maxGap = g
			}
		}
	}
	if maxGap > 4*m*int(log2(m)) {
		t.Fatalf("head gap rank %d blew past O(m log m) envelope (m=%d)", maxGap, m)
	}
}

func TestSeqMultiQueueEmptyPair(t *testing.T) {
	q := NewSeqMultiQueue(2)
	r := rng.NewXoshiro256(7)
	if _, _, ok := q.DeleteTwoChoice(r); ok {
		t.Fatal("delete from empty process returned ok")
	}
}

func TestSeqMultiQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSeqMultiQueue(0) did not panic")
		}
	}()
	NewSeqMultiQueue(0)
}
