package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dlin"
	"repro/internal/stats"
	"repro/internal/trace"
)

func newMQ(m int) *MultiQueue {
	return NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: m}, Seed: 1})
}

// Sizes copies the per-queue element counts into dst (len must equal M), to
// observe how evenly the random-insert rule spreads elements. Exact at
// quiescence.
func (q *MultiQueue) Sizes(dst []int) {
	if len(dst) != q.m {
		panic("core: Sizes dst length mismatch")
	}
	for i := range dst {
		dst[i] = q.qs[i].Len()
	}
}

func TestMultiQueueFIFOishSequential(t *testing.T) {
	q := newMQ(4)
	h := q.NewHandle(1)
	for v := uint64(0); v < 100; v++ {
		h.Enqueue(v)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		it, ok := h.Dequeue()
		if !ok {
			t.Fatalf("dequeue %d failed", i)
		}
		if seen[it.Value] {
			t.Fatalf("value %d dequeued twice", it.Value)
		}
		seen[it.Value] = true
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("dequeue on empty returned ok")
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty after drain")
	}
}

// TestMultiQueueChoicesConfig drives the configured d-choice dequeue across
// the d sweep: every setting must conserve elements through a full drain,
// and accessors must report the normalized configuration.
func TestMultiQueueChoicesConfig(t *testing.T) {
	for _, d := range []int{0, 1, 2, 4} {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 8}, Seed: 3, Choices: d, Stickiness: 4, Batch: 4})
		wantD := d
		if wantD == 0 {
			wantD = 2
		}
		if q.Choices() != wantD {
			t.Fatalf("Choices() = %d, want %d", q.Choices(), wantD)
		}
		h := q.NewHandle(1)
		const n = 500
		for v := uint64(0); v < n; v++ {
			h.Enqueue(v)
		}
		seen := map[uint64]bool{}
		for {
			it, ok := h.Dequeue()
			if !ok {
				break
			}
			if seen[it.Value] {
				t.Fatalf("d=%d: value %d twice", d, it.Value)
			}
			seen[it.Value] = true
		}
		if len(seen) != n {
			t.Fatalf("d=%d: drained %d, want %d", d, len(seen), n)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Choices=-1 did not panic")
			}
		}()
		NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Choices: -1})
	}()
}

// TestMultiQueueTimestampsUnique: concurrent handles stamp from the queue's
// one tick word, per enqueue at Batch 1 and in reserved blocks at Batch 8.
// Each handle's stamps strictly increase and no stamp repeats across
// handles.
func TestMultiQueueTimestampsUnique(t *testing.T) {
	const handles, per = 4, 5000
	for _, batch := range []int{1, 8} {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 4}, Batch: batch})
		stamps := make([][]uint64, handles)
		var wg sync.WaitGroup
		wg.Add(handles)
		for w := 0; w < handles; w++ {
			go func(w int) {
				defer wg.Done()
				h := q.NewHandle(uint64(w) + 2)
				for v := uint64(0); v < per; v++ {
					stamps[w] = append(stamps[w], h.Enqueue(v))
				}
				h.Flush()
			}(w)
		}
		wg.Wait()
		seen := make(map[uint64]int, handles*per)
		for w, ps := range stamps {
			for i, p := range ps {
				if i > 0 && p <= ps[i-1] {
					t.Fatalf("batch %d: handle %d stamped %d after %d", batch, w, p, ps[i-1])
				}
				if prev, dup := seen[p]; dup {
					t.Fatalf("batch %d: priority %d stamped by handles %d and %d", batch, p, prev, w)
				}
				seen[p] = w
			}
		}
	}
}

func TestMultiQueueConcurrentNoLossNoDup(t *testing.T) {
	const producers, per = 4, 5000
	q := newMQ(16)
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			h := q.NewHandle(uint64(p) + 10)
			for i := 0; i < per; i++ {
				h.Enqueue(uint64(p*per + i))
			}
		}(p)
	}
	wg.Wait()

	const consumers = 4
	out := make([][]uint64, consumers)
	wg.Add(consumers)
	for c := 0; c < consumers; c++ {
		go func(c int) {
			defer wg.Done()
			h := q.NewHandle(uint64(c) + 100)
			for {
				it, ok := h.Dequeue()
				if !ok {
					return
				}
				out[c] = append(out[c], it.Value)
			}
		}(c)
	}
	wg.Wait()

	seen := make(map[uint64]bool, producers*per)
	total := 0
	for _, vs := range out {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != producers*per {
		t.Fatalf("dequeued %d, want %d", total, producers*per)
	}
}

func TestMultiQueueRankErrorLinearInM(t *testing.T) {
	// Theorem 7.1 empirically, at the data-structure level, single thread
	// (the sequential relaxation): dequeue rank is O(m) in expectation.
	for _, m := range []int{8, 32} {
		q := newMQ(m)
		h := q.NewHandle(3)
		// Track present labels; compute the rank of each dequeue against a
		// Fenwick tree, like the dlin replay does.
		const buffer = 2000
		maxLabels := buffer + 20000 + 1
		fw := dlin.NewFenwick(maxLabels)
		for i := 0; i < buffer; i++ {
			fw.Add(int(h.Enqueue(0)), 1)
		}
		ranks := stats.NewSample(20000)
		for i := 0; i < 20000; i++ {
			fw.Add(int(h.Enqueue(0)), 1)
			it, ok := h.Dequeue()
			if !ok {
				t.Fatal("dequeue failed with non-empty buffer")
			}
			rank := fw.PrefixSum(int(it.Priority))
			fw.Add(int(it.Priority), -1)
			ranks.AddInt(int(rank))
		}
		if mean := ranks.Mean(); mean > 4*float64(m)+4 {
			t.Fatalf("mean dequeue rank %v not O(m) at m=%d", mean, m)
		}
		if p999 := ranks.Quantile(0.999); p999 > 4*float64(m)*math.Log2(float64(m))+8 {
			t.Fatalf("p99.9 rank %v not O(m log m) at m=%d", p999, m)
		}
	}
}

func TestMultiQueuePriorityMode(t *testing.T) {
	q := newMQ(4)
	h := q.NewHandle(4)
	// Insert priorities in reverse; dequeues should be strongly biased
	// toward low priorities: with a big buffer, the first dequeue must not
	// return anything near the top of the range.
	for p := uint64(1000); p >= 1; p-- {
		h.EnqueuePriority(p, p)
	}
	it, ok := h.Dequeue()
	if !ok {
		t.Fatal("dequeue failed")
	}
	if it.Priority > 100 {
		t.Fatalf("dequeue returned rank-%d-ish priority %d; relaxation too weak", it.Priority, it.Priority)
	}
}

func TestMultiQueueTryDequeue(t *testing.T) {
	q := newMQ(4)
	h := q.NewHandle(5)
	if _, ok := h.TryDequeue(8); ok {
		t.Fatal("TryDequeue on empty returned ok")
	}
	h.Enqueue(7)
	// With generous attempts the single element must be found.
	if it, ok := h.TryDequeue(64); !ok || it.Value != 7 {
		t.Fatalf("TryDequeue = %+v, %v", it, ok)
	}
}

// TestMultiQueueBackings pins that there is no backing left to choose: every
// shard is the same store, and Seed, whose only consumer was the skiplist
// backing's level generator, changes nothing — two queues that differ only
// in Seed pop the identical sequence, and each drains all it was given.
func TestMultiQueueBackings(t *testing.T) {
	var pops [2][]uint64
	for i, seed := range []uint64{6, 1 << 40} {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 8}, Seed: seed})
		h := q.NewHandle(7)
		for v := uint64(0); v < 500; v++ {
			h.Enqueue(v)
		}
		for {
			it, ok := h.Dequeue()
			if !ok {
				break
			}
			pops[i] = append(pops[i], it.Value)
		}
		if len(pops[i]) != 500 {
			t.Fatalf("seed %d: drained %d, want 500", seed, len(pops[i]))
		}
	}
	for j := range pops[0] {
		if pops[0][j] != pops[1][j] {
			t.Fatalf("pop %d: value %d with one seed, %d with the other", j, pops[0][j], pops[1][j])
		}
	}
}

func TestMultiQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Queues=0 did not panic")
		}
	}()
	NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 0}})
}

func TestMultiQueueSizes(t *testing.T) {
	q := newMQ(4)
	h := q.NewHandle(30)
	const n = 4000
	for v := uint64(0); v < n; v++ {
		h.Enqueue(v)
	}
	sizes := make([]int, 4)
	q.Sizes(sizes)
	total := 0
	for _, s := range sizes {
		total += s
		// Uniform random placement: each queue holds ~n/4 ± a few sigma
		// (binomial sd ≈ 27; allow 8 sigma).
		if s < n/4-220 || s > n/4+220 {
			t.Fatalf("queue size %d far from uniform expectation %d", s, n/4)
		}
	}
	if total != n {
		t.Fatalf("sizes sum %d != %d", total, n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Sizes with wrong length did not panic")
			}
		}()
		q.Sizes(make([]int, 3))
	}()
}

// TestLoneHandleInsertRuns pins the insert side's stickiness window: a lone
// handle's enqueues land in runs of max(s, k) elements per drawn shard, at
// the per-op setting with a window and at the daemon's (16, 8). A publish
// that did not charge the window would keep its first choice forever, and
// every enqueue would land in one shard.
func TestLoneHandleInsertRuns(t *testing.T) {
	const m = 64
	for _, c := range []struct{ s, k int }{{4, 1}, {16, 8}} {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: m}, Stickiness: c.s, Batch: c.k})
		h := q.NewHandle(5)
		run := max(c.s, c.k)
		var landed []int // the shard of each published element, in order
		before, sizes := make([]int, m), make([]int, m)
		for len(landed) < 8*run {
			h.Enqueue(0)
			q.Sizes(sizes)
			for i := range sizes {
				for ; before[i] < sizes[i]; before[i]++ {
					landed = append(landed, i)
				}
			}
		}
		drawn := map[int]bool{}
		for i, shard := range landed {
			if i%run != 0 && shard != landed[i-1] {
				t.Fatalf("s=%d k=%d: element %d landed in shard %d, mid-run after shard %d", c.s, c.k, i, shard, landed[i-1])
			}
			drawn[shard] = true
		}
		if len(drawn) < 2 {
			t.Fatalf("s=%d k=%d: all %d enqueues landed in shard %d: the insert choice never expired", c.s, c.k, len(landed), landed[0])
		}
	}
}

// TestDistributionalLinearizabilityQueue is experiment E9 for the queue: a
// live concurrent run is mapped onto the relaxed sequential queue process;
// the witness must exist and dequeue rank costs must respect the
// O(m log m) envelope.
func TestDistributionalLinearizabilityQueue(t *testing.T) {
	const workers, per, m = 4, 4000, 32
	q := newMQ(m)
	rec := trace.NewRecorder(workers, 2*per+1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle(uint64(w) + 50)
			log := rec.Log(w)
			// Phase 1: buffer, then steady-state enq+deq pairs.
			for i := 0; i < per/2; i++ {
				h.EnqueueTraced(uint64(i), rec, log)
			}
			for i := 0; i < per/2; i++ {
				h.EnqueueTraced(uint64(i), rec, log)
				h.DequeueTraced(rec, log)
			}
		}(w)
	}
	wg.Wait()
	events := rec.Merge()
	maxLabel := uint64(0)
	for _, e := range events {
		if e.Kind == trace.KindEnq && e.Arg > maxLabel {
			maxLabel = e.Arg
		}
	}
	w, err := dlin.Replay((*dlin.QueueSpec)(dlin.NewFenwick(int(maxLabel))), events)
	if err != nil {
		t.Fatalf("witness mapping failed: %v", err)
	}
	if w.Costs.N() == 0 {
		t.Fatal("no dequeue costs recorded")
	}
	envelope := dlin.Envelope(m)
	if mean := w.Costs.Mean(); mean > 2*envelope {
		t.Fatalf("mean dequeue rank cost %v exceeds 2x envelope %v", mean, envelope)
	}
	logTail(t, w, m)
}

// TestEnqueueTracedStampsInvocation pins the enqueue's linearization point at
// its invocation, per-op and batched: a stamp taken after Enqueue returns can
// follow a concurrent dequeue of the same element, and the replay then
// rejects a genuine history.
func TestEnqueueTracedStampsInvocation(t *testing.T) {
	for name, cfg := range map[string]MultiQueueConfig{
		"per-op":  {Topology: Topology{InitialM: 4}, Seed: 5},
		"batched": {Topology: Topology{InitialM: 4}, Seed: 5, Stickiness: 4, Batch: 4},
	} {
		const workers, per = 2, 500
		q := NewMultiQueue(cfg)
		rec := trace.NewRecorder(workers, 2*per)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				h := q.NewHandle(uint64(w) + 1)
				log := rec.Log(w)
				for i := 0; i < per; i++ {
					h.EnqueueTraced(uint64(i), rec, log)
					h.DequeueTraced(rec, log)
				}
			}(w)
		}
		wg.Wait()
		events := rec.Merge()
		var maxLabel uint64
		for _, e := range events {
			if e.Kind != trace.KindEnq {
				continue
			}
			if e.Lin != e.Start || e.End < e.Start {
				t.Fatalf("%s: enqueue of label %d stamped Start %d Lin %d End %d, want Lin == Start <= End",
					name, e.Arg, e.Start, e.Lin, e.End)
			}
			maxLabel = max(maxLabel, e.Arg)
		}
		if _, err := dlin.Replay((*dlin.QueueSpec)(dlin.NewFenwick(int(maxLabel))), events); err != nil {
			t.Fatalf("%s: genuine history rejected: %v", name, err)
		}
	}
}

func BenchmarkMultiQueueEnqDeq(b *testing.B) {
	q := newMQ(64)
	h := q.NewHandle(1)
	for i := 0; i < 4096; i++ {
		h.Enqueue(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Enqueue(uint64(i))
		h.Dequeue()
	}
}
