// Benchmarks regenerating every figure of the paper's evaluation (Section 8)
// plus the analysis-validation experiments and the DESIGN.md ablations.
// Custom metrics carry the figures' y-axes beyond ns/op: gap (bin imbalance),
// abort-rate (TL2), rank-mean (MultiQueue quality).
//
// Index (see DESIGN.md §4 and EXPERIMENTS.md):
//
//	Figure 1(a) -> BenchmarkFig1a*
//	Figure 1(b) -> BenchmarkFig1bQuality
//	Figure 1(c) -> BenchmarkFig1cTL2_1M
//	Figure 1(d) -> BenchmarkFig1dTL2_100K
//	Figure 1(e) -> BenchmarkFig1eTL2_10K
//	Theorem 6.1 -> BenchmarkThm61Gap
//	Lemma 6.6   -> BenchmarkLemma66Audit
//	Theorem 7.1 -> BenchmarkThm71Rank
//	Ablation A1 -> BenchmarkAblationDChoice
//	Ablation A2 -> BenchmarkAblationRatio
//	Ablation A3 -> BenchmarkAblationDelta
//
// Fast-path guards (beyond the paper; see DESIGN.md §2):
//
//	MultiCounter sticky/batched -> BenchmarkMultiCounterStickyBatched
//	MultiQueue sticky/batched   -> BenchmarkMultiQueueStickyBatched
//	cpq batch layer             -> BenchmarkCPQBatchOps
//	heap bulk substrate         -> BenchmarkHeapBulkOps
//	zero-alloc hot paths        -> BenchmarkMultiQueueHotPathAllocs,
//	                               BenchmarkMultiCounterHotPathAllocs
package repro

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/cpq"
	"repro/internal/dlin"
	"repro/internal/heap"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stm"
)

// seedCounter derives distinct per-goroutine seeds inside RunParallel.
var seedCounter atomic.Uint64

func nextSeed() uint64 { return seedCounter.Add(1) * 0x9e3779b97f4a7c15 }

// --- Figure 1(a): MultiCounter increment throughput under contention ------

func BenchmarkFig1aExactFAA(b *testing.B) {
	c := counters.NewExact()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func benchFig1aMultiCounter(b *testing.B, ratio int) {
	m := ratio * runtime.GOMAXPROCS(0)
	mc := core.NewMultiCounter(m)
	b.RunParallel(func(pb *testing.PB) {
		h := mc.NewHandle(nextSeed())
		for pb.Next() {
			h.Increment()
		}
	})
	b.ReportMetric(float64(mc.Gap()), "gap")
}

func BenchmarkFig1aMultiCounterC1(b *testing.B) { benchFig1aMultiCounter(b, 1) }
func BenchmarkFig1aMultiCounterC2(b *testing.B) { benchFig1aMultiCounter(b, 2) }
func BenchmarkFig1aMultiCounterC4(b *testing.B) { benchFig1aMultiCounter(b, 4) }
func BenchmarkFig1aMultiCounterC8(b *testing.B) { benchFig1aMultiCounter(b, 8) }

// --- Figure 1(b): single-threaded quality (value error and bin gap) -------

func BenchmarkFig1bQuality(b *testing.B) {
	const m = 64
	mc := core.NewMultiCounter(m)
	r := rng.NewXoshiro256(7)
	var maxGap, maxErr uint64
	for i := 0; i < b.N; i++ {
		mc.Increment(r)
		if i%1024 == 0 {
			if g := mc.Gap(); g > maxGap {
				maxGap = g
			}
			v := mc.Read(r)
			truth := uint64(i + 1)
			e := v - truth
			if v < truth {
				e = truth - v
			}
			if e > maxErr {
				maxErr = e
			}
		}
	}
	b.ReportMetric(float64(maxGap), "max-gap")
	b.ReportMetric(float64(maxErr), "max-read-err")
	b.ReportMetric(dlin.Envelope(m), "envelope")
}

// --- Figures 1(c)-(e): TL2 with exact vs relaxed global clock -------------

func benchTL2(b *testing.B, objects int, mkClock func(threads int) stm.Clock) {
	threads := runtime.GOMAXPROCS(0)
	clk := mkClock(threads)
	arr := stm.NewArray(objects)
	var commits, aborts atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		seed := nextSeed()
		tx := stm.NewTx(arr, clk.NewHandle(seed), seed)
		r := rng.NewXoshiro256(seed + 1)
		for pb.Next() {
			x := r.Intn(objects)
			y := r.Intn(objects)
			for y == x {
				y = r.Intn(objects)
			}
			err := tx.Run(func(t *stm.Tx) error {
				vx, err := t.Load(x)
				if err != nil {
					return err
				}
				vy, err := t.Load(y)
				if err != nil {
					return err
				}
				t.Store(x, vx+1)
				t.Store(y, vy+1)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		commits.Add(tx.Stats.Commits)
		aborts.Add(tx.Stats.TotalAborts())
	})
	b.StopTimer()
	if sum, want := arr.Sum(), 2*commits.Load(); sum != want {
		b.Fatalf("verification failed: array sum %d, want %d", sum, want)
	}
	b.ReportMetric(float64(aborts.Load())/float64(commits.Load()+aborts.Load()+1), "abort-rate")
}

func faaClock(int) stm.Clock { return stm.NewFAAClock() }

// mcClock sizes the relaxed clock like the tl2-bench tool: m = 8 shards per
// thread and Δ = 8·m, just above the counter's skew (m·gap). Δ is fixed
// across object counts, so the hot-window fraction 2Δ/M produces the paper's
// Figure 1(c)→1(e) degradation as M shrinks.
func mcClock(threads int) stm.Clock {
	m := 8 * threads
	return stm.NewMCClock(m, 8*uint64(m))
}

func BenchmarkFig1cTL2_1M_FAA(b *testing.B)     { benchTL2(b, 1_000_000, faaClock) }
func BenchmarkFig1cTL2_1M_Multi(b *testing.B)   { benchTL2(b, 1_000_000, mcClock) }
func BenchmarkFig1dTL2_100K_FAA(b *testing.B)   { benchTL2(b, 100_000, faaClock) }
func BenchmarkFig1dTL2_100K_Multi(b *testing.B) { benchTL2(b, 100_000, mcClock) }
func BenchmarkFig1eTL2_10K_FAA(b *testing.B)    { benchTL2(b, 10_000, faaClock) }
func BenchmarkFig1eTL2_10K_Multi(b *testing.B)  { benchTL2(b, 10_000, mcClock) }

// --- Theorem 6.1 / Section 6: adversarial two-choice balance --------------

func BenchmarkThm61Gap(b *testing.B) {
	for _, adv := range []sched.Adversary{
		&sched.RoundRobin{}, sched.NewUniform(3), &sched.BlockStampede{},
	} {
		b.Run(adv.Name(), func(b *testing.B) {
			n := 8
			res := sched.Run(sched.Config{
				N: n, M: 8 * n, Ops: int64(b.N), Seed: 5, Adversary: adv, C: 4,
			})
			b.ReportMetric(res.Final.Gap(), "gap")
			b.ReportMetric(float64(res.WrongChoices)/float64(res.CompletedOps+1), "wrong-rate")
		})
	}
}

func BenchmarkLemma66Audit(b *testing.B) {
	n := 8
	res := sched.Run(sched.Config{
		N: n, M: 8 * n, Ops: int64(b.N), Seed: 6,
		Adversary: &sched.SlowPoke{Delay: 4*n*4 + 10}, C: 4,
	})
	b.ReportMetric(float64(res.MaxWindowBad), "max-window-bad")
	b.ReportMetric(float64(n), "bound")
	if !res.LemmaHolds {
		b.Fatal("Lemma 6.6 violated")
	}
}

// --- Theorem 7.1: MultiQueue dequeue rank quality --------------------------

func BenchmarkThm71Rank(b *testing.B) {
	const m = 64
	q := balance.NewSeqMultiQueue(m)
	r := rng.NewXoshiro256(8)
	for i := 0; i < 50*m; i++ {
		q.Insert(r)
	}
	var sum, count int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Insert(r)
		if _, rank, ok := q.DeleteTwoChoice(r); ok {
			sum += int64(rank)
			count++
		}
	}
	if count > 0 {
		b.ReportMetric(float64(sum)/float64(count), "rank-mean")
		b.ReportMetric(float64(m), "m")
	}
}

// BenchmarkThm71Adversarial measures dequeue rank under adversarial
// schedules via the queue simulator (live runs cannot produce these
// schedules).
func BenchmarkThm71Adversarial(b *testing.B) {
	for _, adv := range []sched.Adversary{
		&sched.RoundRobin{}, &sched.BlockStampede{},
	} {
		b.Run(adv.Name(), func(b *testing.B) {
			const m = 32
			res := sched.RunQueue(sched.QueueSimConfig{
				N: 8, M: m, Ops: int64(b.N), Seed: 21, Adversary: adv, Buffer: 64 * m,
			})
			if res.Ranks.N() > 0 {
				b.ReportMetric(res.Ranks.Mean(), "rank-mean")
			}
		})
	}
}

// BenchmarkGraphicalAllocation covers the PTW graphical-process hierarchy.
func BenchmarkGraphicalAllocation(b *testing.B) {
	const dim = 6
	m := 1 << dim
	for _, gr := range []struct {
		name string
		g    *balance.Graph
	}{
		{"cycle", balance.CycleGraph(m)},
		{"hypercube", balance.HypercubeGraph(dim)},
		{"complete", balance.CompleteGraph(m)},
	} {
		b.Run(gr.name, func(b *testing.B) {
			res := balance.Run(balance.RunConfig{
				M: m, Steps: int64(b.N), Seed: 22, Process: balance.GraphChoice{G: gr.g},
			})
			b.ReportMetric(res.Final.Gap(), "gap")
		})
	}
}

// --- Ablation A1: number of choices d --------------------------------------

func BenchmarkAblationDChoice(b *testing.B) {
	for _, d := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			const m = 64
			mc := core.NewMultiCounter(m, core.WithChoices(d))
			r := rng.NewXoshiro256(9)
			for i := 0; i < b.N; i++ {
				mc.Increment(r)
			}
			b.ReportMetric(float64(mc.Gap()), "gap")
		})
	}
}

// --- Ablation A2: m/n ratio under a hostile schedule -----------------------

func BenchmarkAblationRatio(b *testing.B) {
	n := 8
	for _, ratio := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("m=%dn", ratio), func(b *testing.B) {
			res := sched.Run(sched.Config{
				N: n, M: ratio * n, Ops: int64(b.N), Seed: 10,
				Adversary: &sched.BlockStampede{}, C: 4,
			})
			b.ReportMetric(res.Final.Gap(), "gap")
		})
	}
}

// --- Ablation A3: TL2 Δ slack sweep ----------------------------------------

func BenchmarkAblationDelta(b *testing.B) {
	const objects = 100_000
	for _, delta := range []uint64{512, 4096, 32768} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			benchTL2(b, objects, func(threads int) stm.Clock {
				return stm.NewMCClock(8*threads, delta)
			})
		})
	}
}

// --- Sticky/batched MultiCounter fast path ---------------------------------

// BenchmarkMultiCounterStickyBatched compares the per-op two-choice baseline
// against the sticky, batched, combined, and d=4-combined fast-path modes
// under parallel increments. cmd/quality audits the deviation each setting
// costs; bench/'s lib-counter workload referees the headline one.
func BenchmarkMultiCounterStickyBatched(b *testing.B) {
	for _, cfg := range []struct {
		name            string
		d, stick, batch int
	}{
		{"baseline", 2, 1, 1},
		{"sticky8", 2, 8, 1},
		{"batch8", 2, 1, 8},
		{"sticky8-batch8", 2, 8, 8},
		{"d4-sticky8-batch8", 4, 8, 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			mc := core.NewMultiCounterConfig(core.MultiCounterConfig{
				Counters:   8 * runtime.GOMAXPROCS(0),
				Choices:    cfg.d,
				Stickiness: cfg.stick,
				Batch:      cfg.batch,
			})
			b.RunParallel(func(pb *testing.PB) {
				h := mc.NewHandle(nextSeed())
				for pb.Next() {
					h.Increment()
				}
				h.Flush()
			})
			b.ReportMetric(float64(mc.Gap()), "gap")
		})
	}
}

// --- Sticky/batched MultiQueue fast path -----------------------------------

// BenchmarkMultiQueueStickyBatched compares the per-op baseline against the
// sticky, batched, and combined fast-path modes under parallel
// enqueue+dequeue pairs. cmd/quality -queue audits the rank error each
// setting costs; bench/'s lib-queue workload referees the headline one.
func BenchmarkMultiQueueStickyBatched(b *testing.B) {
	for _, cfg := range []struct {
		name         string
		stick, batch int
	}{
		{"baseline", 1, 1},
		{"sticky8", 8, 1},
		{"batch8", 1, 8},
		{"sticky8-batch8", 8, 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			q := core.NewMultiQueue(core.MultiQueueConfig{
				Queues:     8 * runtime.GOMAXPROCS(0),
				Stickiness: cfg.stick, Batch: cfg.batch,
			})
			pre := q.NewHandle(18)
			for i := 0; i < 8192; i++ {
				pre.Enqueue(uint64(i))
			}
			pre.Flush()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := q.NewHandle(nextSeed())
				for pb.Next() {
					h.Enqueue(1)
					h.Dequeue()
				}
			})
		})
	}
}

// BenchmarkCPQBatchOps isolates the cpq layer: per-element Add/DeleteMin
// against AddBatch/DeleteMinUpTo amortising one lock over 8 elements.
func BenchmarkCPQBatchOps(b *testing.B) {
	const k = 8
	b.Run("per-op", func(b *testing.B) {
		q := cpq.New(0, 1024, 0)
		for i := 0; i < b.N; i++ {
			q.Add(uint64(i), uint64(i))
			if i%k == k-1 {
				for j := 0; j < k; j++ {
					q.DeleteMin()
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		q := cpq.New(0, 1024, 0)
		batch := make([]heap.Item, 0, k)
		var out []heap.Item
		for i := 0; i < b.N; i++ {
			batch = append(batch, heap.Item{Priority: uint64(i), Value: uint64(i)})
			if len(batch) == k {
				q.AddBatch(batch)
				batch = batch[:0]
				out = q.DeleteMinUpTo(k, out[:0])
			}
		}
	})
}

// BenchmarkHeapBulkOps isolates the heap itself (no lock, no cached-top
// publish): a k-sized insert+drain cycle over a standing buffer, per-element
// Push/Pop vs the PushBatch/PopBatch entry points. ReportAllocs pins the
// batch paths at 0 allocs/op.
func BenchmarkHeapBulkOps(b *testing.B) {
	const k, standing = 8, 4096
	fill := func() (*heap.Binary, *rng.Xoshiro256) {
		h := heap.NewBinary(2 * standing)
		r := rng.NewXoshiro256(23)
		for i := 0; i < standing; i++ {
			h.Push(heap.Item{Priority: r.Next()})
		}
		return h, r
	}
	b.Run("per-element", func(b *testing.B) {
		h, r := fill()
		out := make([]heap.Item, 0, k)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				h.Push(heap.Item{Priority: r.Next()})
			}
			out = out[:0]
			for j := 0; j < k; j++ {
				it, _ := h.Pop()
				out = append(out, it)
			}
		}
	})
	b.Run("bulk", func(b *testing.B) {
		h, r := fill()
		in := make([]heap.Item, k)
		out := make([]heap.Item, 0, k)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range in {
				in[j] = heap.Item{Priority: r.Next()}
			}
			h.PushBatch(in)
			out, _, _ = h.PopBatch(k, out[:0])
		}
	})
}

// --- Zero-allocation hot-path guards (DESIGN.md §5) -----------------------

// BenchmarkMultiQueueHotPathAllocs measures the steady-state batched
// enqueue+dequeue pair with allocation reporting: the handle's pooled batch
// and prefetch buffers plus the heap arrays grown during warm-up must hold
// it at 0 allocs/op (TestMQHandleHotPathZeroAlloc enforces the same bound in
// the test suite, at every (stickiness, batch) setting).
func BenchmarkMultiQueueHotPathAllocs(b *testing.B) {
	q := core.NewMultiQueue(core.MultiQueueConfig{Queues: 64, Stickiness: 8, Batch: 8})
	h := q.NewHandle(28)
	for i := 0; i < 8192; i++ {
		h.Enqueue(uint64(i))
		if i%2 == 0 {
			h.Dequeue()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Enqueue(1)
		h.Dequeue()
	}
}

// BenchmarkMultiCounterHotPathAllocs is the counter counterpart: a
// steady-state batched increment must stay at 0 allocs/op.
func BenchmarkMultiCounterHotPathAllocs(b *testing.B) {
	mc := core.NewMultiCounterConfig(core.MultiCounterConfig{
		Counters: 64, Choices: 2, Stickiness: 8, Batch: 8,
	})
	h := mc.NewHandle(29)
	for i := 0; i < 8192; i++ {
		h.Increment()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Increment()
	}
}

// --- MultiQueue vs coarse-locked exact PQ (Section 7 throughput shape) -----

func BenchmarkMultiQueueVsCoarse(b *testing.B) {
	for _, cfg := range []struct {
		name string
		m    int
	}{
		{"coarse-m1", 1},
		{"multiqueue-4n", 4 * runtime.GOMAXPROCS(0)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			q := core.NewMultiQueue(core.MultiQueueConfig{Queues: cfg.m, Seed: 13})
			pre := q.NewHandle(14)
			for i := 0; i < 8192; i++ {
				pre.Enqueue(uint64(i))
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := q.NewHandle(nextSeed())
				for pb.Next() {
					h.Enqueue(1)
					h.Dequeue()
				}
			})
		})
	}
}
