package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// elasticTopo is the test topology: start mid-range so both directions are
// reachable.
func elasticTopo(initial, min, max int) Topology {
	return Topology{InitialM: initial, MinM: min, MaxM: max}
}

// TestResizeClampAndEpochBookkeeping pins the epoch-word accounting: each
// effective Resize bumps Epoch and Resizes by one, requests outside
// [MinM, MaxM] clamp, a no-op request (already at the target) moves nothing,
// and a fixed topology (MinM == MaxM) never moves at all.
func TestResizeClampAndEpochBookkeeping(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: elasticTopo(4, 2, 16), Seed: 1})
	if q.M() != 4 || q.Epoch() != 0 {
		t.Fatalf("fresh queue: M=%d Epoch=%d, want 4, 0", q.M(), q.Epoch())
	}
	if got := q.Resize(16); got != 16 {
		t.Fatalf("Resize(16) = %d", got)
	}
	if got := q.Resize(64); got != 16 {
		t.Fatalf("Resize(64) = %d, want clamp to MaxM 16", got)
	}
	if got := q.Resize(1); got != 2 {
		t.Fatalf("Resize(1) = %d, want clamp to MinM 2", got)
	}
	if got := q.Resize(2); got != 2 {
		t.Fatalf("no-op Resize(2) = %d", got)
	}
	// Three effective moves: 4→16, 16→16 (clamped no-op after the first
	// clamp already sat at 16 — not counted), 16→2. The clamped Resize(64)
	// lands on the current m and must not burn an epoch.
	st := q.Stats()
	if st.Resizes != 2 || st.Epoch != 2 || st.CurrentM != 2 {
		t.Fatalf("Stats = %+v, want Resizes 2, Epoch 2, CurrentM 2", st)
	}
	if topo := q.Topology(); topo.MinM != 2 || topo.MaxM != 16 || topo.InitialM != 4 {
		t.Fatalf("Topology = %+v mutated by Resize", topo)
	}

	fixed := NewMultiQueue(MultiQueueConfig{Queues: 8, Seed: 2})
	if got := fixed.Resize(32); got != 8 {
		t.Fatalf("fixed-m Resize(32) = %d, want pinned 8", got)
	}
	if fixed.Epoch() != 0 {
		t.Fatalf("fixed-m queue burned an epoch: %d", fixed.Epoch())
	}
}

// TestResizeConservationQuiescent is the conservation property the ISSUE
// demands, quiescent half: elements enqueued across a
// grow → shrink → shrink-to-MinM staircase are all drained afterwards —
// no loss, no duplication — including elements admitted while the live m
// differed from both the initial and final counts.
func TestResizeConservationQuiescent(t *testing.T) {
	for _, g := range stickyBatchGrid {
		t.Run(fmt.Sprintf("binary/s%d/k%d/a0", g.stick, g.batch), func(t *testing.T) {
			const handles, per = 3, 500
			q := NewMultiQueue(MultiQueueConfig{
				Topology:   elasticTopo(4, 1, 32),
				Stickiness: g.stick, Batch: g.batch,
			})
			hs := make([]*MQHandle, handles)
			for i := range hs {
				hs[i] = q.NewHandle(uint64(i) + 1)
			}
			want := make(map[uint64]int, 4*handles*per)
			phase := 0
			fill := func() {
				for i, h := range hs {
					for j := 0; j < per; j++ {
						v := uint64(phase<<20 | i<<16 | j)
						h.Enqueue(v)
						want[v]++
					}
				}
				phase++
			}
			fill()       // at m=4
			q.Resize(32) // grow: unseal parked tail
			fill()       // at m=32, lands in unsealed shards too
			q.Resize(3)  // deep shrink: 29 victims drain-and-donate
			fill()       // at m=3
			q.Resize(1)  // to MinM: everything funnels into qs[0]
			fill()       // at m=1
			for _, h := range hs {
				h.Flush()
			}
			if got, wantN := q.Len(), len(want); got != wantN {
				t.Fatalf("Len = %d after staircase, want %d", got, wantN)
			}
			drainer := q.NewHandle(77)
			got := make(map[uint64]int, len(want))
			for {
				it, ok := drainer.Dequeue()
				if !ok {
					break
				}
				got[it.Value]++
			}
			for v, n := range want {
				if got[v] != n {
					t.Fatalf("value %#x drained %d times, want %d", v, got[v], n)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("drained %d distinct values, want %d", len(got), len(want))
			}
		})
	}
}

// TestResizeConcurrentConservation is the racing half: workers enqueue and
// dequeue nonstop while the main goroutine staircases the live shard count
// between MinM and MaxM. At quiescence every admitted element is either
// dequeued or still resident — exact conservation under -race across the
// epoch flips, seal refusals and drain-and-donate hops.
func TestResizeConcurrentConservation(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		const workers, per = 4, 2000
		q := NewMultiQueue(MultiQueueConfig{
			Topology:   elasticTopo(8, 1, 64),
			Stickiness: 4, Batch: 4,
		})
		var enq, deq atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(id int) {
				defer wg.Done()
				h := q.NewHandle(uint64(id) + 1)
				defer h.Close() // flushes the insert buffer, returns prefetches
				for j := 0; j < per; j++ {
					h.Enqueue(uint64(id)<<32 | uint64(j))
					enq.Add(1)
					if j%3 == 0 {
						if _, ok := h.TryDequeue(4); ok {
							deq.Add(1)
						}
					}
				}
			}(w)
		}
		for i := 0; i < 40; i++ {
			q.Resize([]int{64, 1, 16, 2, 32, 8}[i%6])
		}
		wg.Wait()
		q.Resize(1) // final funnel exercises one more full drain
		if got, want := int64(q.Len()), enq.Load()-deq.Load(); got != want {
			t.Fatalf("Len = %d at quiescence, want enq-deq = %d", got, want)
		}
		drainer := q.NewHandle(999)
		n := int64(0)
		for {
			if _, ok := drainer.Dequeue(); !ok {
				break
			}
			n++
		}
		if n != enq.Load()-deq.Load() {
			t.Fatalf("drained %d, want %d", n, enq.Load()-deq.Load())
		}
	})
}

// TestResizeStaleHandleReroutes pins the handle half of the epoch protocol:
// a handle whose cached epoch word predates a shrink must re-seed on its
// next operation and route every subsequent insert into the live range —
// no element may land in a sealed victim.
func TestResizeStaleHandleReroutes(t *testing.T) {
	q := NewMultiQueue(MultiQueueConfig{Topology: elasticTopo(8, 2, 8), Seed: 3})
	h := q.NewHandle(1)
	h.Enqueue(0) // handle now carries the epoch word for m=8
	if h.m != 8 {
		t.Fatalf("handle cached m = %d, want 8", h.m)
	}
	q.Resize(2)
	for i := uint64(1); i <= 64; i++ {
		h.Enqueue(i) // first call must observe the flip via syncEpoch
	}
	h.Flush()
	if h.m != 2 {
		t.Fatalf("handle cached m = %d after shrink, want 2", h.m)
	}
	live := q.qs[0].Len() + q.qs[1].Len()
	if live != q.Len() || live != 65 {
		t.Fatalf("live shards hold %d of Len %d (want all 65) — an insert landed in a sealed victim",
			live, q.Len())
	}

	// Grow back: the stale handle must widen its sampler to reach the
	// unsealed tail again.
	q.Resize(8)
	h.Enqueue(100)
	if h.m != 8 {
		t.Fatalf("handle cached m = %d after grow, want 8", h.m)
	}
}

// TestMultiCounterResizeConservesExact checks the counter's releveling
// resize: Exact is conserved to the unit across shrink and grow, the
// redistributed cells are level (gap ≤ 1 at quiescence), and a doubling
// staircase to MaxM and a halving one back to MinM keep every unit.
func TestMultiCounterResizeConservesExact(t *testing.T) {
	mc := NewMultiCounterConfig(MultiCounterConfig{
		Topology: Topology{InitialM: 8, MinM: 1, MaxM: 32},
	})
	h := mc.NewHandle(1)
	const n = 100_003 // prime: the releveling remainder path is exercised
	for i := 0; i < n; i++ {
		h.Increment()
	}
	if mc.Exact() != n {
		t.Fatalf("Exact = %d before resize, want %d", mc.Exact(), n)
	}
	for _, m := range []int{32, 3, 1, 16} {
		if got := mc.Resize(m); got != m {
			t.Fatalf("Resize(%d) = %d", m, got)
		}
		if mc.Exact() != n {
			t.Fatalf("Exact = %d after Resize(%d), want %d", mc.Exact(), m, n)
		}
		if gap := mc.Gap(); gap > 1 {
			t.Fatalf("Gap = %d after releveling Resize(%d), want <= 1", gap, m)
		}
		snap := make([]uint64, mc.M())
		mc.Snapshot(snap)
		var sum uint64
		for _, v := range snap {
			sum += v
		}
		if sum != n {
			t.Fatalf("live cells sum %d after Resize(%d), want %d — weight stranded in a retired cell", sum, m, n)
		}
	}
	// Stale handle keeps counting correctly across the flips.
	for i := 0; i < 1000; i++ {
		h.Increment()
	}
	h.Flush()
	if mc.Exact() != n+1000 {
		t.Fatalf("Exact = %d after post-resize increments, want %d", mc.Exact(), n+1000)
	}

	// Double to MaxM, then halve back to MinM, one step at a time.
	for m := mc.M(); m < 32; {
		m = mc.Resize(2 * m)
	}
	if mc.M() != 32 {
		t.Fatalf("doubling staircase grew m to %d, want 32", mc.M())
	}
	for m := mc.M(); m > 1; {
		m = mc.Resize(m / 2)
	}
	if mc.M() != 1 {
		t.Fatalf("halving staircase shrank m to %d, want 1", mc.M())
	}
	if mc.Exact() != n+1000 {
		t.Fatalf("Exact = %d after resize staircase, want %d", mc.Exact(), n+1000)
	}
}

// TestSamplerReseed pins the stale-handle reseed contract: the clamp
// d = min(d0, m) re-applies in both directions, candidates after a reseed
// stay within the new range, and the reseed itself never allocates.
func TestSamplerReseed(t *testing.T) {
	r := rng.NewXoshiro256(7)

	t.Run("reclamp both directions", func(t *testing.T) {
		s := NewSampler(16, 8, 4)
		s.Reseed(2) // m below d0: clamp to 2
		if s.Choices() != 2 {
			t.Fatalf("Choices = %d after Reseed(2), want 2", s.Choices())
		}
		for _, c := range s.Candidates(r, 2) {
			if c < 0 || c >= 2 {
				t.Fatalf("candidate %d outside [0, 2)", c)
			}
		}
		s.Reseed(64) // widen back toward d0
		if s.Choices() != 8 {
			t.Fatalf("Choices = %d after Reseed(64), want d0 8", s.Choices())
		}
		seen := false
		for i := 0; i < 50; i++ {
			for _, c := range s.Candidates(r, 8) {
				if c < 0 || c >= 64 {
					t.Fatalf("candidate %d outside [0, 64)", c)
				}
				if c >= 16 {
					seen = true
				}
			}
			s.Expire()
		}
		if !seen {
			t.Fatal("after Reseed(64) no candidate ever landed beyond the old m — sampler still draws from [0, 16)")
		}
	})

	t.Run("zero alloc", func(t *testing.T) {
		s := NewSampler(16, 8, 4)
		if allocs := testing.AllocsPerRun(100, func() {
			s.Reseed(2)
			s.Reseed(64)
		}); allocs != 0 {
			t.Fatalf("Reseed allocates %.1f/op, want 0", allocs)
		}
	})
}
