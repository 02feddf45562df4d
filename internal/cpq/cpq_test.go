package cpq

import (
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/rng"
)

// newQueue returns an empty queue with the given capacity hint, passing New
// the zero Backing, the only one it accepts, and a seed it ignores.
func newQueue(capacity int) *Queue { return New(0, capacity, 0) }

func TestSequentialSemantics(t *testing.T) {
	q := newQueue(16)
	if q.ReadMin() != EmptyTop {
		t.Fatal("fresh ReadMin != EmptyTop")
	}
	q.Add(5, 50)
	q.Add(2, 20)
	q.Add(9, 90)
	if q.ReadMin() != 2 {
		t.Fatalf("ReadMin = %d, want 2", q.ReadMin())
	}
	if it, ok := q.PeekMin(); !ok || it.Priority != 2 || it.Value != 20 {
		t.Fatalf("PeekMin = %+v", it)
	}
	it, ok := q.DeleteMin()
	if !ok || it.Priority != 2 || it.Value != 20 {
		t.Fatalf("DeleteMin = %+v", it)
	}
	if q.ReadMin() != 5 {
		t.Fatalf("ReadMin after delete = %d", q.ReadMin())
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestEmptyDelete(t *testing.T) {
	q := newQueue(4)
	if _, ok := q.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty returned ok")
	}
	it, ok, acquired := q.TryDeleteMin()
	if !acquired {
		t.Fatal("TryDeleteMin on uncontended queue did not acquire")
	}
	if ok {
		t.Fatalf("TryDeleteMin on empty returned item %+v", it)
	}
}

func TestTryAdd(t *testing.T) {
	q := newQueue(4)
	if !q.TryAdd(1, 10) {
		t.Fatal("TryAdd on free queue failed")
	}
	if q.ReadMin() != 1 {
		t.Fatal("TryAdd did not publish top")
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
		q.Add(p, 0)
		if q.ReadMin() != min {
			t.Fatalf("cached top %d != true min %d", q.ReadMin(), min)
		}
	}
	// Drain: cached top must track the heap top exactly.
	prev := uint64(0)
	for {
		top := q.ReadMin()
		it, ok := q.DeleteMin()
		if !ok {
			if top != EmptyTop {
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
				q.Add(r.Uint64n(1<<32), v)
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
				it, ok := q.DeleteMin()
				if ok {
					popped[c] = append(popped[c], it.Value)
					continue
				}
				select {
				case <-done:
					// Producers finished; one more sweep then exit.
					if it, ok := q.DeleteMin(); ok {
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
				q.Add(r.Uint64n(1<<40), 1)
			}
		}(p)
	}
	wg.Wait()
	prev := uint64(0)
	count := 0
	for {
		it, ok := q.DeleteMin()
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
	if q.Len() != 0 || q.ReadMin() != EmptyTop {
		t.Fatal("empty AddBatch changed state")
	}
	batch := []heap.Item{{Priority: 7, Value: 70}, {Priority: 3, Value: 30}, {Priority: 5, Value: 50}}
	q.AddBatch(batch)
	if q.Len() != 3 {
		t.Fatalf("Len after AddBatch = %d", q.Len())
	}
	if q.ReadMin() != 3 {
		t.Fatalf("ReadMin after AddBatch = %d, want 3", q.ReadMin())
	}
	// Drain two with one call; ascending order required.
	got := q.DeleteMinUpTo(2, nil)
	if len(got) != 2 || got[0].Priority != 3 || got[1].Priority != 5 {
		t.Fatalf("DeleteMinUpTo(2) = %+v", got)
	}
	if q.ReadMin() != 7 {
		t.Fatalf("ReadMin after partial drain = %d, want 7", q.ReadMin())
	}
	// Asking for more than remain returns the remainder and publishes empty.
	got = q.DeleteMinUpTo(10, got[:0])
	if len(got) != 1 || got[0].Priority != 7 {
		t.Fatalf("final DeleteMinUpTo = %+v", got)
	}
	if q.ReadMin() != EmptyTop || q.Len() != 0 {
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
	if q.Len() != 2 || q.ReadMin() != 1 {
		t.Fatalf("Len=%d ReadMin=%d after TryAddBatch", q.Len(), q.ReadMin())
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
// publishes, and an empty delete elides — on both the batch and the
// per-element paths, which increment at different sites.
func TestStatsElisionAndPublicationCounters(t *testing.T) {
	q := newQueue(16)
	if s := q.Stats(); s != (QueueStats{}) {
		t.Fatalf("fresh queue stats %+v, want zero", s)
	}
	if _, ok := q.DeleteMin(); ok {
		t.Fatal("empty queue returned an element")
	}
	s := q.Stats()
	if s.Elisions != 1 || s.Publications != 0 {
		t.Fatalf("published-empty delete must elide: %+v", s)
	}
	q.Add(5, 5) // changes the word: publishes
	q.Add(9, 9) // covered by published min 5: elides
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

// TestStatsLockContended drives two goroutines through blocking Adds on one
// queue long enough that at least one Lock call observes the lock held.
func TestStatsLockContended(t *testing.T) {
	q := newQueue(1024)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50_000; i++ {
				q.Add(uint64(i), uint64(g))
			}
		}(g)
	}
	wg.Wait()
	// Contention is probabilistic but two tight Add loops over one lock
	// reliably collide within 100k acquisitions on any scheduler; treat the
	// count as informational if it stays zero on a single-CPU runner.
	if s := q.Stats(); s.LockContended == 0 {
		t.Logf("no contended acquisitions observed (single CPU?): %+v", s)
	}
}
