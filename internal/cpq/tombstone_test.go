package cpq

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/rng"
)

// tombModel is the exact sequential reference the tombstone driver checks
// against: a priority-sorted slice of live items where Invalidate is applied
// as an immediate removal. The queue's lazy tombstones must be externally
// indistinguishable from that eager model — Len, the published top word and
// every delivered element have to match it after every operation.
type tombModel struct {
	items []heap.Item
}

func (m *tombModel) push(it heap.Item) {
	i := 0
	for i < len(m.items) && m.items[i].Priority <= it.Priority {
		i++
	}
	m.items = append(m.items, heap.Item{})
	copy(m.items[i+1:], m.items[i:])
	m.items[i] = it
}

// popValue removes the tied entry matching value from the minimum-priority
// run (the heap breaks priority ties arbitrarily, so the model matches
// on the delivered value within the tied prefix). Reports whether the
// delivered item was a legal minimum.
func (m *tombModel) popValue(it heap.Item) bool {
	if len(m.items) == 0 || m.items[0].Priority != it.Priority {
		return false
	}
	for i, cand := range m.items {
		if cand.Priority != it.Priority {
			return false // value not found within the tied minimum run
		}
		if cand.Value == it.Value {
			m.items = append(m.items[:i], m.items[i+1:]...)
			return true
		}
	}
	return false
}

func (m *tombModel) removeValue(v uint64) (heap.Item, bool) {
	for i, it := range m.items {
		if it.Value == v {
			m.items = append(m.items[:i], m.items[i+1:]...)
			return it, true
		}
	}
	return heap.Item{}, false
}

// driveTombstone runs a byte-decoded add/invalidate/delete-min stream over
// a fresh queue and checks it against the eager-removal model after
// every operation: Len must exclude tombstones the moment Invalidate
// returns, the top word must always publish the live minimum (stable,
// correct empty bit, minimum reduced to TopPrioMask), no pop path may ever
// deliver an invalidated element, and the tombstone counters must conserve.
// Priorities mix small values with values above 2^TopPrioBits so truncation
// and the full-resolution compaction decision are both exercised; values are
// drawn from a monotone counter, matching the uniqueness contract.
func driveTombstone(t *testing.T, data []byte) {
	t.Helper()
	q := newQueue(4)
	r := rng.NewXoshiro256(uint64(len(data)) + 13)
	model := &tombModel{}
	var nextVal uint64
	// invalidated records every value ever passed to Invalidate, so the
	// never-deliver-a-dead-element assertion covers the whole run.
	invalidated := make(map[uint64]bool)
	prio := func(op byte) uint64 {
		p := r.Uint64n(512)
		if op&0x40 != 0 {
			p |= r.Next() << TopPrioBits
		}
		return p
	}
	newItem := func(op byte) heap.Item {
		nextVal++
		return heap.Item{Priority: prio(op), Value: nextVal}
	}
	checkDelivered := func(opIdx int, it heap.Item) {
		if invalidated[it.Value] {
			t.Fatalf("op %d delivered invalidated element (p=%d v=%d)", opIdx, it.Priority, it.Value)
		}
		if !model.popValue(it) {
			t.Fatalf("op %d delivered (p=%d v=%d), not a legal minimum (model min %+v of %d)",
				opIdx, it.Priority, it.Value, model.items, len(model.items))
		}
	}
	var batch []heap.Item
	for opIdx, op := range data {
		switch op % 8 {
		case 0, 1:
			it := newItem(op)
			q.Add(it.Priority, it.Value)
			model.push(it)
		case 2:
			it, ok := q.DeleteMin()
			if ok != (len(model.items) > 0) {
				t.Fatalf("op %d DeleteMin ok=%v with %d live modeled", opIdx, ok, len(model.items))
			}
			if ok {
				checkDelivered(opIdx, it)
			}
		case 3:
			k := int(op / 8 % 7)
			batch = batch[:0]
			for i := 0; i < k; i++ {
				batch = append(batch, newItem(op+byte(i)))
			}
			q.AddBatch(batch)
			for _, it := range batch {
				model.push(it)
			}
		case 4:
			k := int(op / 8 % 9)
			want := k
			if want > len(model.items) {
				want = len(model.items)
			}
			got := q.DeleteMinUpTo(k, batch[:0])
			batch = got[:0]
			if len(got) != want {
				t.Fatalf("op %d DeleteMinUpTo(%d) returned %d live, want %d", opIdx, k, len(got), want)
			}
			for _, it := range got {
				checkDelivered(opIdx, it)
			}
		case 5:
			// Invalidate one random live element (possibly the minimum).
			if len(model.items) == 0 {
				continue
			}
			victim := model.items[r.Intn(len(model.items))]
			if !q.Invalidate(victim.Priority, victim.Value) {
				t.Fatalf("op %d Invalidate(%d,%d) of a live element returned false", opIdx, victim.Priority, victim.Value)
			}
			invalidated[victim.Value] = true
			model.removeValue(victim.Value)
		case 6:
			// InvalidateBatch over up to 3 random live elements (duplicates
			// allowed in the request — only the first arms).
			if len(model.items) == 0 {
				continue
			}
			n := 1 + int(op/8%3)
			batch = batch[:0]
			for i := 0; i < n; i++ {
				batch = append(batch, model.items[r.Intn(len(model.items))])
			}
			wantArmed := 0
			seen := map[uint64]bool{}
			for _, it := range batch {
				if !seen[it.Value] {
					seen[it.Value] = true
					wantArmed++
				}
			}
			if armed := q.InvalidateBatch(batch); armed != wantArmed {
				t.Fatalf("op %d InvalidateBatch armed %d, want %d", opIdx, armed, wantArmed)
			}
			for _, it := range batch {
				invalidated[it.Value] = true
				model.removeValue(it.Value)
			}
		case 7:
			it, ok, acquired := q.TryDeleteMin()
			if !acquired {
				t.Fatalf("op %d TryDeleteMin refused without contention", opIdx)
			}
			if ok != (len(model.items) > 0) {
				t.Fatalf("op %d TryDeleteMin ok=%v with %d live modeled", opIdx, ok, len(model.items))
			}
			if ok {
				checkDelivered(opIdx, it)
			}
		}
		if n := q.Len(); n != len(model.items) {
			t.Fatalf("op %d Len=%d, want %d live (tombstones must be excluded)", opIdx, n, len(model.items))
		}
		w := q.ReadTop()
		if w.InFlight() {
			t.Fatalf("op %d word still mid-update at quiescence", opIdx)
		}
		if w.Empty() != (len(model.items) == 0) {
			t.Fatalf("op %d empty bit %v with %d live modeled", opIdx, w.Empty(), len(model.items))
		}
		if len(model.items) > 0 {
			if want := model.items[0].Priority & TopPrioMask; w.Min() != want {
				t.Fatalf("op %d published min %d, want live min %d", opIdx, w.Min(), want)
			}
		}
		st := q.Stats()
		if st.Reclaimed > st.Invalidations {
			t.Fatalf("op %d reclaimed %d > invalidations %d", opIdx, st.Reclaimed, st.Invalidations)
		}
	}
	// Drain to empty: every element still delivered must be live and every
	// tombstone must be reclaimed by the time the queue empties.
	for opIdx := 0; ; opIdx++ {
		it, ok := q.DeleteMin()
		if !ok {
			break
		}
		checkDelivered(-1-opIdx, it)
	}
	if len(model.items) != 0 {
		t.Fatalf("drain ended with %d live modeled elements undelivered", len(model.items))
	}
	if st := q.Stats(); st.Reclaimed != st.Invalidations {
		t.Fatalf("drained queue reclaimed %d of %d tombstones", st.Reclaimed, st.Invalidations)
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue Len=%d", q.Len())
	}
}

// TestTombstoneTracksModelAllBackings is the property-test complement of
// FuzzCPQTombstone: long pseudo-random streams, so the skip-and-compact paths
// of the single and batch pops are pinned beyond the fuzzer's seed corpus.
func TestTombstoneTracksModelAllBackings(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		r := rng.NewXoshiro256(7)
		for round := 0; round < 10; round++ {
			data := make([]byte, 300)
			for i := range data {
				data[i] = byte(r.Next())
			}
			driveTombstone(t, data)
		}
	})
}

// FuzzCPQTombstone is the coverage-guided differential fuzzer over the
// add/invalidate/delete-min driver: byte-driven operation streams against the
// eager-removal sorted-slice model, with
// priorities straddling 2^TopPrioBits. Its seed corpus runs on every plain
// `go test`; CI's fuzz-smoke step discovers and mutates it per push.
func FuzzCPQTombstone(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 2, 5, 4, 6, 7, 3, 1})
	f.Add([]byte{3, 3, 5, 5, 6, 4, 4, 0x45, 0x42, 255, 13})
	seed := make([]byte, 160)
	for i := range seed {
		seed[i] = byte(i * 29)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		driveTombstone(t, data)
	})
}

// TestInvalidateLenExcludesTombstones is the regression pin for the
// Len/Sizes satellite: an interior invalidation must drop Len immediately —
// before any pop reclaims the element — and the published top word must not
// move; invalidating the minimum must recompact and republish the next live
// minimum in the same call.
func TestInvalidateLenExcludesTombstones(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		q := newQueue(8)
		q.Add(10, 1)
		q.Add(20, 2)
		q.Add(30, 3)
		if q.Len() != 3 {
			t.Fatalf("Len=%d, want 3", q.Len())
		}
		// Interior tombstone: Len drops, word untouched (elided).
		pubBefore := q.Stats().Publications
		if !q.Invalidate(20, 2) {
			t.Fatal("Invalidate(20,2) returned false")
		}
		if q.Len() != 2 {
			t.Fatalf("Len=%d after interior Invalidate, want 2", q.Len())
		}
		if got := q.ReadTop().Min(); got != 10 {
			t.Fatalf("min %d after interior Invalidate, want 10", got)
		}
		if pubs := q.Stats().Publications; pubs != pubBefore {
			t.Fatalf("interior Invalidate republished (%d -> %d); want elision", pubBefore, pubs)
		}
		// While the tombstone is uncollected, re-arming is refused.
		if q.Invalidate(20, 2) {
			t.Fatal("re-Invalidate of an uncollected tombstone armed again")
		}
		// Minimum tombstone: word recompacts to the next live minimum.
		if !q.Invalidate(10, 1) {
			t.Fatal("Invalidate(10,1) returned false")
		}
		if q.Len() != 1 {
			t.Fatalf("Len=%d after min Invalidate, want 1", q.Len())
		}
		if got := q.ReadTop().Min(); got != 30 {
			t.Fatalf("min %d after min Invalidate, want 30 (compacted)", got)
		}
		it, ok := q.DeleteMin()
		if !ok || it.Priority != 30 || it.Value != 3 {
			t.Fatalf("DeleteMin = (%+v, %v), want the live (30,3)", it, ok)
		}
		if it, ok := q.DeleteMin(); ok {
			t.Fatalf("DeleteMin on logically empty queue delivered %+v", it)
		}
		if st := q.Stats(); st.Invalidations != 2 || st.Reclaimed != 2 {
			t.Fatalf("stats %+v, want 2 invalidations and 2 reclaimed", st)
		}
	})
}
