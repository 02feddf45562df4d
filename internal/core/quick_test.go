package core

import (
	"testing"
	"testing/quick"
)

// Property tests (testing/quick) on the core structures' invariants.

// TestQuickMultiCounterExactness: for any sequence of increments and
// weighted adds, Exact equals the sum of applied deltas — the counter never
// loses or invents updates regardless of which shards the two-choice rule
// touched.
func TestQuickMultiCounterExactness(t *testing.T) {
	f := func(ops []uint8, seed uint64, mRaw uint8) bool {
		m := int(mRaw%63) + 2
		mc := NewMultiCounter(m)
		h := mc.NewHandle(seed)
		var want uint64
		for _, o := range ops {
			if o%2 == 0 {
				h.Increment()
				want++
			} else {
				delta := uint64(o % 9)
				h.Add(delta)
				want += delta
			}
		}
		return mc.Exact() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMultiCounterReadWithinGapBand: every read is m times some shard,
// so it must lie within [m*min, m*max] of the shard values — the structural
// fact behind the m·gap deviation bound.
func TestQuickMultiCounterReadWithinGapBand(t *testing.T) {
	f := func(nOps uint16, seed uint64) bool {
		m := 16
		mc := NewMultiCounter(m)
		h := mc.NewHandle(seed)
		for i := 0; i < int(nOps); i++ {
			h.Increment()
		}
		snap := make([]uint64, m)
		mc.Snapshot(snap)
		min, max := snap[0], snap[0]
		for _, v := range snap[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		for k := 0; k < 32; k++ {
			v := h.Read()
			if v < uint64(m)*min || v > uint64(m)*max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMultiQueueMultisetConservation: whatever multiset of values goes
// in comes out, exactly once each.
func TestQuickMultiQueueMultisetConservation(t *testing.T) {
	f := func(vals []uint16, seed uint64, pick uint8) bool {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: int(pick%7) + 2}})
		h := q.NewHandle(seed + 1)
		want := map[uint64]int{}
		for _, v := range vals {
			h.Enqueue(uint64(v))
			want[uint64(v)]++
		}
		for {
			it, ok := h.Dequeue()
			if !ok {
				break
			}
			want[it.Value]--
			if want[it.Value] < 0 {
				return false
			}
			if want[it.Value] == 0 {
				delete(want, it.Value)
			}
		}
		return len(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMultiQueuePriorityOrderPerQueue: with a single internal queue
// (m = 1), the MultiQueue degenerates to an exact priority queue: dequeues
// come out in non-decreasing priority order.
func TestQuickMultiQueueExactWhenMIsOne(t *testing.T) {
	f := func(prios []uint16, seed uint64) bool {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 1}, Seed: seed})
		h := q.NewHandle(seed + 1)
		for _, p := range prios {
			h.EnqueuePriority(uint64(p), 0)
		}
		prev := uint64(0)
		for {
			it, ok := h.Dequeue()
			if !ok {
				break
			}
			if it.Priority < prev {
				return false
			}
			prev = it.Priority
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTimestampsBounded: a per-op handle's read is m times one shard,
// and no shard exceeds the total number of ticks, so reads are bounded by
// m times the tick count (and are never negative by construction).
func TestQuickTimestampsBounded(t *testing.T) {
	f := func(ticks uint8, seed uint64) bool {
		m := 8
		h := NewMultiCounter(m).NewHandle(seed)
		for i := 0; i < int(ticks); i++ {
			h.Increment()
		}
		v := h.Read()
		return v <= uint64(m)*uint64(ticks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
