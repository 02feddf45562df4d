package cpq

import (
	"math"
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/pad"
	"repro/internal/rng"
)

// emptyTop is what minPrio reads off an empty queue's word: it compares
// above every real priority.
const emptyTop = math.MaxUint64

// minPrio decodes w's cached minimum, reduced to TopPrioMask, or emptyTop
// when the empty bit is set; a mid-update word yields the last published
// value.
func (w TopWord) minPrio() uint64 {
	if w.Empty() {
		return emptyTop
	}
	return uint64(w) >> (pad.SeqBits + 1)
}

// newQueue returns an empty queue with the given capacity hint, passing New
// the zero Backing, the only one it accepts, and a seed it ignores.
func newQueue(capacity int) *Queue { return New(0, capacity, 0) }

// addOne is the paper's Add(e, p): an AddBatch of one item.
func addOne(q *Queue, priority, value uint64) {
	q.AddBatch([]heap.Item{{Priority: priority, Value: value}})
}

// tryAddOne is addOne through TryAddBatch: false means the lock was held.
func tryAddOne(q *Queue, priority, value uint64) bool {
	return q.TryAddBatch([]heap.Item{{Priority: priority, Value: value}})
}

// deleteOne is the paper's DeleteMin: DeleteMinUpTo(1), ok false when empty.
func deleteOne(q *Queue) (heap.Item, bool) {
	out := q.DeleteMinUpTo(1, nil)
	if len(out) == 0 {
		return heap.Item{}, false
	}
	return out[0], true
}

// tryDeleteOne is deleteOne through TryDeleteMinUpTo: acquired false means
// the lock was held, and (it, ok) are then meaningless.
func tryDeleteOne(q *Queue) (it heap.Item, ok, acquired bool) {
	out, acquired := q.TryDeleteMinUpTo(1, nil)
	if len(out) == 0 {
		return heap.Item{}, false, acquired
	}
	return out[0], true, acquired
}

// minOf returns the smallest (priority, value) in items, ok false when
// there is none: the queue's true minimum when items is its AppendTo.
func minOf(items []heap.Item) (min heap.Item, ok bool) {
	for i, it := range items {
		if i == 0 || it.Priority < min.Priority {
			min = it
		}
	}
	return min, len(items) > 0
}

func TestSequentialSemantics(t *testing.T) {
	q := newQueue(16)
	if q.ReadTop().minPrio() != emptyTop {
		t.Fatal("fresh ReadTop().minPrio() != emptyTop")
	}
	addOne(q, 5, 50)
	addOne(q, 2, 20)
	addOne(q, 9, 90)
	if q.ReadTop().minPrio() != 2 {
		t.Fatalf("ReadTop().minPrio() = %d, want 2", q.ReadTop().minPrio())
	}
	if it, ok := minOf(q.AppendTo(nil)); !ok || it.Priority != 2 || it.Value != 20 {
		t.Fatalf("minimum of AppendTo = %+v", it)
	}
	it, ok := deleteOne(q)
	if !ok || it.Priority != 2 || it.Value != 20 {
		t.Fatalf("DeleteMinUpTo(1) = %+v", it)
	}
	if q.ReadTop().minPrio() != 5 {
		t.Fatalf("ReadTop().minPrio() after delete = %d", q.ReadTop().minPrio())
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestEmptyDelete(t *testing.T) {
	q := newQueue(4)
	if _, ok := deleteOne(q); ok {
		t.Fatal("DeleteMinUpTo(1) on empty returned ok")
	}
	it, ok, acquired := tryDeleteOne(q)
	if !acquired {
		t.Fatal("TryDeleteMinUpTo(1) on uncontended queue did not acquire")
	}
	if ok {
		t.Fatalf("TryDeleteMinUpTo(1) on empty returned item %+v", it)
	}
}

func TestTryAdd(t *testing.T) {
	q := newQueue(4)
	if !tryAddOne(q, 1, 10) {
		t.Fatal("one-item TryAddBatch on free queue failed")
	}
	if q.ReadTop().minPrio() != 1 {
		t.Fatal("one-item TryAddBatch did not publish top")
	}
}

func TestReadMinTracksTopAtQuiescence(t *testing.T) {
	q := newQueue(16)
	r := rng.NewXoshiro256(3)
	min := uint64(1 << 62)
	for i := 0; i < 100; i++ {
		p := r.Uint64n(1000)
		if p < min {
			min = p
		}
		addOne(q, p, 0)
		if q.ReadTop().minPrio() != min {
			t.Fatalf("cached top %d != true min %d", q.ReadTop().minPrio(), min)
		}
	}
	// Drain: cached top must track the heap top exactly.
	prev := uint64(0)
	for {
		top := q.ReadTop().minPrio()
		it, ok := deleteOne(q)
		if !ok {
			if top != emptyTop {
				t.Fatalf("top %d on empty queue", top)
			}
			break
		}
		if it.Priority != top {
			t.Fatalf("deleted %d but cached top was %d", it.Priority, top)
		}
		if it.Priority < prev {
			t.Fatal("out of order")
		}
		prev = it.Priority
	}
}

// TestConcurrentNoLossNoDup hammers one queue from multiple goroutines and
// checks that every pushed value is popped exactly once.
func TestConcurrentNoLossNoDup(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 5000
	q := newQueue(1024)
	var wg sync.WaitGroup
	popped := make([][]uint64, consumers)
	var remaining sync.WaitGroup
	remaining.Add(producers)

	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			defer remaining.Done()
			r := rng.NewXoshiro256(uint64(100 + p))
			for i := 0; i < perProducer; i++ {
				v := uint64(p*perProducer + i)
				addOne(q, r.Uint64n(1<<32), v)
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { remaining.Wait(); close(done) }()

	wg.Add(consumers)
	for c := 0; c < consumers; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				it, ok := deleteOne(q)
				if ok {
					popped[c] = append(popped[c], it.Value)
					continue
				}
				select {
				case <-done:
					// Producers finished; one more sweep then exit.
					if it, ok := deleteOne(q); ok {
						popped[c] = append(popped[c], it.Value)
						continue
					}
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()

	seen := make(map[uint64]bool, producers*perProducer)
	total := 0
	for _, vs := range popped {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d popped twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != producers*perProducer {
		t.Fatalf("popped %d values, want %d", total, producers*perProducer)
	}
}

func TestConcurrentOrderIsLocallySorted(t *testing.T) {
	// A single consumer draining a queue concurrently filled by producers
	// still observes non-decreasing priorities *per DeleteMin linearization*
	// only at quiescence; here we check the drain-after-fill case.
	q := newQueue(1024)
	var wg sync.WaitGroup
	const producers, per = 8, 2000
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			r := rng.NewXoshiro256(uint64(p) + 7)
			for i := 0; i < per; i++ {
				addOne(q, r.Uint64n(1<<40), 1)
			}
		}(p)
	}
	wg.Wait()
	prev := uint64(0)
	count := 0
	for {
		it, ok := deleteOne(q)
		if !ok {
			break
		}
		if it.Priority < prev {
			t.Fatal("drain out of order")
		}
		prev = it.Priority
		count++
	}
	if count != producers*per {
		t.Fatalf("drained %d, want %d", count, producers*per)
	}
}

func TestNewPanicsOnUnknownBacking(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with unknown backing did not panic")
		}
	}()
	New(Backing(42), 1, 1)
}

func TestAddBatchDeleteMinUpTo(t *testing.T) {
	q := newQueue(16)
	q.AddBatch(nil) // empty batch: no lock, no effect
	if q.Len() != 0 || q.ReadTop().minPrio() != emptyTop {
		t.Fatal("empty AddBatch changed state")
	}
	batch := []heap.Item{{Priority: 7, Value: 70}, {Priority: 3, Value: 30}, {Priority: 5, Value: 50}}
	q.AddBatch(batch)
	if q.Len() != 3 {
		t.Fatalf("Len after AddBatch = %d", q.Len())
	}
	if q.ReadTop().minPrio() != 3 {
		t.Fatalf("ReadTop().minPrio() after AddBatch = %d, want 3", q.ReadTop().minPrio())
	}
	// Drain two with one call; ascending order required.
	got := q.DeleteMinUpTo(2, nil)
	if len(got) != 2 || got[0].Priority != 3 || got[1].Priority != 5 {
		t.Fatalf("DeleteMinUpTo(2) = %+v", got)
	}
	if q.ReadTop().minPrio() != 7 {
		t.Fatalf("ReadTop().minPrio() after partial drain = %d, want 7", q.ReadTop().minPrio())
	}
	// Asking for more than remain returns the remainder and publishes empty.
	got = q.DeleteMinUpTo(10, got[:0])
	if len(got) != 1 || got[0].Priority != 7 {
		t.Fatalf("final DeleteMinUpTo = %+v", got)
	}
	if q.ReadTop().minPrio() != emptyTop || q.Len() != 0 {
		t.Fatal("queue not empty after full drain")
	}
	// k <= 0 and empty-queue calls leave dst untouched.
	if out := q.DeleteMinUpTo(0, got); len(out) != len(got) {
		t.Fatal("DeleteMinUpTo(0) appended")
	}
	if out := q.DeleteMinUpTo(4, nil); len(out) != 0 {
		t.Fatalf("DeleteMinUpTo on empty = %+v", out)
	}
}

func TestTryAddBatch(t *testing.T) {
	q := newQueue(16)
	if !q.TryAddBatch(nil) {
		t.Fatal("empty TryAddBatch reported contention")
	}
	if !q.LockForTest() {
		t.Fatal("could not take test lock")
	}
	if q.TryAddBatch([]heap.Item{{Priority: 1}}) {
		t.Fatal("TryAddBatch succeeded against a held lock")
	}
	q.UnlockForTest()
	if !q.TryAddBatch([]heap.Item{{Priority: 2, Value: 20}, {Priority: 1, Value: 10}}) {
		t.Fatal("TryAddBatch failed on a free lock")
	}
	if q.Len() != 2 || q.ReadTop().minPrio() != 1 {
		t.Fatalf("Len=%d ReadTop().minPrio()=%d after TryAddBatch", q.Len(), q.ReadTop().minPrio())
	}
}

func TestBatchConcurrentConservation(t *testing.T) {
	// Batched producers and batched consumers must neither lose nor
	// duplicate elements.
	q := newQueue(64)
	const producers, batches, k = 4, 200, 8
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			r := rng.NewXoshiro256(uint64(p) + 1)
			buf := make([]heap.Item, k)
			for i := 0; i < batches; i++ {
				for j := range buf {
					v := uint64(p*batches*k + i*k + j)
					buf[j] = heap.Item{Priority: r.Next(), Value: v}
				}
				q.AddBatch(buf)
			}
		}(p)
	}
	wg.Wait()
	want := producers * batches * k
	if q.Len() != want {
		t.Fatalf("Len = %d, want %d", q.Len(), want)
	}
	const consumers = 4
	out := make([][]heap.Item, consumers)
	wg.Add(consumers)
	for c := 0; c < consumers; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				got := q.DeleteMinUpTo(k, nil)
				if len(got) == 0 {
					return
				}
				out[c] = append(out[c], got...)
			}
		}(c)
	}
	wg.Wait()
	seen := make(map[uint64]bool, want)
	total := 0
	for _, run := range out {
		for _, it := range run {
			if seen[it.Value] {
				t.Fatalf("value %d dequeued twice", it.Value)
			}
			seen[it.Value] = true
			total++
		}
	}
	if total != want {
		t.Fatalf("drained %d, want %d", total, want)
	}
}

// TestStatsElisionAndPublicationCounters pins the publication-protocol
// counters Stats exports: a covered insert elides, a word-changing section
// publishes, and an empty delete elides — for one-item batches, which take
// addLocked's single Push, and for longer ones, which take PushBatch.
func TestStatsElisionAndPublicationCounters(t *testing.T) {
	q := newQueue(16)
	if s := q.Stats(); s != (QueueStats{}) {
		t.Fatalf("fresh queue stats %+v, want zero", s)
	}
	if _, ok := deleteOne(q); ok {
		t.Fatal("empty queue returned an element")
	}
	s := q.Stats()
	if s.Elisions != 1 || s.Publications != 0 {
		t.Fatalf("published-empty delete must elide: %+v", s)
	}
	addOne(q, 5, 5) // changes the word: publishes
	addOne(q, 9, 9) // covered by published min 5: elides
	s = q.Stats()
	if s.Publications != 1 {
		t.Fatalf("first insert must publish exactly once: %+v", s)
	}
	if s.Elisions != 2 {
		t.Fatalf("covered insert must elide: %+v", s)
	}
	q.AddBatch([]heap.Item{{Priority: 6, Value: 6}, {Priority: 7, Value: 7}})
	s = q.Stats()
	if s.Elisions != 3 {
		t.Fatalf("covered batch insert must elide: %+v", s)
	}
	q.AddBatch([]heap.Item{{Priority: 1, Value: 1}})
	s = q.Stats()
	if s.Publications != 2 {
		t.Fatalf("new-minimum batch must publish: %+v", s)
	}
	q.DeleteMinUpTo(16, nil)
	s = q.Stats()
	if s.Publications != 3 {
		t.Fatalf("draining delete must publish: %+v", s)
	}
	if s.LockContended != 0 {
		t.Fatalf("single-threaded run must never contend: %+v", s)
	}
}

// TestStatsLockContended drives two goroutines through blocking one-item
// AddBatch calls on one queue long enough that at least one Lock call
// observes the lock held.
func TestStatsLockContended(t *testing.T) {
	q := newQueue(1024)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50_000; i++ {
				addOne(q, uint64(i), uint64(g))
			}
		}(g)
	}
	wg.Wait()
	// Contention is probabilistic but two tight AddBatch loops over one lock
	// reliably collide within 100k acquisitions on any scheduler; treat the
	// count as informational if it stays zero on a single-CPU runner.
	if s := q.Stats(); s.LockContended == 0 {
		t.Logf("no contended acquisitions observed (single CPU?): %+v", s)
	}
}
