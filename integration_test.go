// Cross-module integration tests: these exercise whole pipelines (live
// structure -> trace -> witness; simulator vs sequential process; STM over
// the relaxed oracle) rather than single packages.
package repro

import (
	"math"
	"sync"
	"testing"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/dlin"
	"repro/internal/sched"
	"repro/internal/stm"
	"repro/internal/trace"
)

// TestSchedSingleThreadMatchesBalanceExactly: with one thread and a benign
// schedule, the adversarial simulator *is* the sequential two-choice process.
// Both consume the same PRNG stream (two bounded draws per operation) and
// break ties the same way, so for equal seeds the final states must be
// bit-identical — a strong check that the simulator's update rule implements
// the paper's process.
func TestSchedSingleThreadMatchesBalanceExactly(t *testing.T) {
	const m, steps, seed = 64, 100_000, 1234
	simRes := sched.Run(sched.Config{
		N: 1, M: m, Ops: steps, Seed: seed, Adversary: &sched.RoundRobin{}, C: 4,
	})
	balRes := balance.Run(balance.RunConfig{
		M: m, Steps: steps, Seed: seed, Process: balance.DChoice{D: 2},
	})
	for i := 0; i < m; i++ {
		if simRes.Final.Weight(i) != balRes.Final.Weight(i) {
			t.Fatalf("bin %d: simulator %v != sequential process %v",
				i, simRes.Final.Weight(i), balRes.Final.Weight(i))
		}
	}
}

// TestCounterWitnessCostMatchesProcessGap: the cost distribution extracted
// from a live concurrent run must agree in scale with the sequential
// process's gap: cost <= m * gap-envelope. This ties together core, trace,
// dlin and balance.
func TestCounterWitnessCostMatchesProcessGap(t *testing.T) {
	const workers, per, m = 4, 8000, 64
	mc := core.NewMultiCounter(m)
	rec := trace.NewRecorder(workers, per+per/4+1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := mc.NewHandle(uint64(w) + 7)
			log := rec.Log(w)
			for i := 0; i < per; i++ {
				h.IncrementTraced(rec, log)
				if i%4 == 0 {
					h.ReadTraced(rec, log)
				}
			}
		}(w)
	}
	wg.Wait()
	w, err := dlin.Replay(&dlin.CounterSpec{}, rec.Merge())
	if err != nil {
		t.Fatal(err)
	}
	// Sequential-process envelope for the same m: gap stays O(log m); allow
	// a 4x constant over m*2log2(m).
	seq := balance.Run(balance.RunConfig{
		M: m, Steps: int64(workers * per), Seed: 99, Process: balance.DChoice{D: 2},
		SampleEvery: 10_000,
	})
	bound := 4 * float64(m) * (seq.MaxGap() + 2*math.Log2(m))
	if max := w.Costs.Max(); max > bound {
		t.Fatalf("live max cost %v exceeds process-derived bound %v", max, bound)
	}
}

// TestMultiQueueNearlySortedDrain: after concurrent timestamped enqueues, a
// single-threaded drain must come out "nearly sorted": each dequeued
// priority may precede at most O(m log m) smaller ones (displacement bound
// implied by Theorem 7.1's rank bound).
func TestMultiQueueNearlySortedDrain(t *testing.T) {
	const producers, per, m = 4, 4000, 32
	q := core.NewMultiQueue(core.MultiQueueConfig{Topology: core.Topology{InitialM: m}, Seed: 5})
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			h := q.NewHandle(uint64(p) + 60)
			for i := 0; i < per; i++ {
				h.Enqueue(uint64(i))
			}
		}(p)
	}
	wg.Wait()

	h := q.NewHandle(61)
	var seq []uint64
	for {
		it, ok := h.Dequeue()
		if !ok {
			break
		}
		seq = append(seq, it.Priority)
	}
	if len(seq) != producers*per {
		t.Fatalf("drained %d, want %d", len(seq), producers*per)
	}
	// Max displacement: for each position, how many later elements are
	// smaller. O(n log n) via coordinate-compressed Fenwick.
	fw := dlin.NewFenwick(len(seq) + producers*per + 10)
	var maxDisp int64
	// Walk from the end: count elements already seen (later in drain order)
	// that are smaller than the current one.
	for i := len(seq) - 1; i >= 0; i-- {
		d := fw.PrefixSum(int(seq[i]))
		if d > maxDisp {
			maxDisp = d
		}
		fw.Add(int(seq[i]), 1)
	}
	envelope := int64(8 * dlin.Envelope(m))
	if maxDisp > envelope {
		t.Fatalf("drain displacement %d exceeds 8x envelope %d", maxDisp, envelope)
	}
}

// TestTL2OverRelaxedOracleEndToEnd ties stm + core + counters together and
// checks abort-cause accounting is populated under the relaxed clock.
func TestTL2OverRelaxedOracleEndToEnd(t *testing.T) {
	res := stm.RunIncrement(stm.WorkloadConfig{
		Objects: 32768, Workers: 4, Clock: stm.NewMCClock(64, 512),
		OpsPerWorker: 4000, Seed: 77,
	})
	if !res.Verified {
		t.Fatalf("verification failed: %s", res.String())
	}
	if res.Commits != 4*4000 {
		t.Fatalf("commits %d != requested ops", res.Commits)
	}
}

// TestExactVsRelaxedClockSameWorkload: under identical fixed work, both
// clocks must produce the identical final array sum (2 per committed tx) —
// the paper's exactness check, run as a differential test.
func TestExactVsRelaxedClockSameWorkload(t *testing.T) {
	for _, clk := range []stm.Clock{stm.NewFAAClock(), stm.NewMCClock(32, 256)} {
		res := stm.RunIncrement(stm.WorkloadConfig{
			Objects: 16384, Workers: 2, Clock: clk, OpsPerWorker: 3000, Seed: 88,
		})
		if !res.Verified {
			t.Fatalf("%s: verification failed: %s", clk.Name(), res.String())
		}
		if res.Commits != 2*3000 {
			t.Fatalf("%s: commits %d", clk.Name(), res.Commits)
		}
	}
}
