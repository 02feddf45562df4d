// Command mempool-sim drives the fee-priority mempool (repro/internal/mempool)
// end to end and closes with two gating verdicts:
//
//   - conservation: a concurrent churn phase (admissions, replace-by-fee
//     bumps and deliveries from -threads workers against one pool) must
//     leave the ledger exact — admitted = popped + evicted + replaced +
//     resident — with every physical element accounted for and, after a
//     full drain, every tombstone armed by removal reclaimed by compaction
//     (MQStats.Invalidations == Reclaimed).
//   - fee-loss-within-limit: a single-threaded intent trace replayed against
//     the relaxed pool and the exact head-greedy reference
//     (quality.MeasureMempoolRevenue) must lose at most
//     quality.MempoolFeeLossLimit of the exact builder's trace revenue.
//     Measured values run negative — popping by global fee parks high-fee
//     mid-chain transactions early, a chain lookahead the myopic reference
//     lacks — so the gate is an upper bound.
//
// The command exits 1 when either verdict fails, so CI can run it as a
// smoke gate.
//
// Usage:
//
//	mempool-sim [-txs 100000] [-threads 4] [-senders 256] [-theta 0.9]
//	    [-popfrac 0.4] [-bumpfrac 0.1] [-feemean 1000] [-cap 0]
//	    [-bumpnum 110] [-bumpden 100] [-m 256] [-choices 2] [-stickiness 8]
//	    [-batch 8] [-seed 7] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mempool"
	"repro/internal/quality"
	"repro/internal/rng"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mempool-sim: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	txs := flag.Int("txs", 100_000, "total operations across the churn workers")
	threads := flag.Int("threads", 4, "concurrent churn workers")
	senders := flag.Int("senders", 256, "sender population")
	theta := flag.Float64("theta", 0.9, "Zipf exponent over senders")
	popfrac := flag.Float64("popfrac", 0.4, "fraction of operations that deliver")
	bumpfrac := flag.Float64("bumpfrac", 0.1, "fraction of non-pop operations that are replace-by-fee attempts")
	feemean := flag.Float64("feemean", 1000, "mean of the exponential fee distribution")
	capacity := flag.Int("cap", 0, "resident capacity (0 = unbounded)")
	bumpNum := flag.Uint64("bumpnum", 110, "replace-by-fee bump factor numerator")
	bumpDen := flag.Uint64("bumpden", 100, "replace-by-fee bump factor denominator")
	m := flag.Int("m", 256, "number of queues under the pool")
	choices := flag.Int("choices", 2, "random choices d per dequeue")
	stickiness := flag.Int("stickiness", 8, "operation stickiness window")
	batch := flag.Int("batch", 8, "batching factor")
	seed := flag.Uint64("seed", 7, "PRNG seed")
	csv := flag.Bool("csv", false, "emit CSV instead of markdown")
	flag.Parse()

	if *txs < 1 || *threads < 1 || *senders < 1 || *m < 1 || *choices < 1 {
		fail("-txs, -threads, -senders, -m and -choices must be >= 1")
	}
	if *stickiness < 0 || *batch < 0 || *capacity < 0 {
		fail("-stickiness, -batch and -cap must be >= 0")
	}
	if !(*popfrac >= 0 && *popfrac < 1) || !(*bumpfrac >= 0 && *bumpfrac < 1) || !(*theta > 0) || !(*feemean > 0) {
		fail("-popfrac and -bumpfrac must be in [0, 1), -theta and -feemean > 0")
	}
	if *bumpNum == 0 || *bumpDen == 0 || *bumpNum < *bumpDen {
		fail("-bumpnum/-bumpden must be a factor >= 1")
	}
	// Report the normalized knobs (0 means 1 inside core) so the table
	// header names the configuration actually driven.
	if *stickiness == 0 {
		*stickiness = 1
	}
	if *batch == 0 {
		*batch = 1
	}
	cfg := mempool.Config{
		Queue: core.MultiQueueConfig{
			Topology: core.Topology{InitialM: *m},
			Choices:  *choices, Stickiness: *stickiness, Batch: *batch,
		},
		Capacity: *capacity,
		BumpNum:  *bumpNum,
		BumpDen:  *bumpDen,
		Seed:     *seed + 1,
	}

	ok := runChurn(cfg, *txs, *threads, *senders, *theta, *popfrac, *bumpfrac, *feemean, *seed, *csv)

	wcfg := mempool.WorkloadConfig{
		Ops: *txs / *threads, Senders: *senders, Theta: *theta,
		PopFrac: *popfrac, BumpFrac: *bumpfrac, FeeMean: *feemean, Seed: *seed + 2,
	}
	ok = runFeeQuality(cfg, wcfg, *csv) && ok
	if !ok {
		os.Exit(1)
	}
}

// runChurn runs the concurrent phase and reports the conservation verdict:
// workers admit at their sender frontiers, bump random residents and
// deliver, all through their own handles; at quiescence and again after a
// full drain the pool must conserve exactly and leave no tombstone armed
// but unreclaimed.
func runChurn(cfg mempool.Config, txs, threads, senders int, theta, popfrac, bumpfrac, feemean float64, seed uint64, csv bool) bool {
	p := mempool.New(cfg)
	opsPer := txs / threads
	var wg sync.WaitGroup
	var delivered, revenue = make([]uint64, threads), make([]uint64, threads)
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := p.NewHandle(seed + uint64(w)*31 + 11)
			defer h.Close()
			r := rng.NewXoshiro256(seed + uint64(w)*101 + 3)
			zipf := rng.NewZipf(r, senders, theta)
			for i := 0; i < opsPer; i++ {
				switch {
				case r.Bernoulli(popfrac):
					if tx, pok := p.Pop(); pok {
						delivered[w]++
						revenue[w] += tx.Fee
					}
				case r.Bernoulli(bumpfrac):
					s := uint64(zipf.Next())
					lo, hi := p.ResidentRange(s)
					if lo == hi {
						continue
					}
					nonce := lo + r.Uint64n(hi-lo)
					if old, fok := p.Fee(s, nonce); fok {
						h.Admit(s, nonce, mempool.BumpFee(old, cfg.BumpNum, cfg.BumpDen)+r.Uint64n(500))
					}
				default:
					s := uint64(zipf.Next())
					fee := 1 + uint64(r.Exp()*feemean)
					if fee > mempool.MaxFee {
						fee = mempool.MaxFee
					}
					h.Admit(s, p.NextAdmit(s), fee)
				}
			}
		}(w)
	}
	wg.Wait()
	churnErr := p.CheckConservation()
	midStats := p.Stats()
	var drainPops, drainRevenue uint64
	for {
		tx, pok := p.Pop()
		if !pok {
			break
		}
		drainPops++
		drainRevenue += tx.Fee
	}
	drainErr := p.CheckConservation()
	elapsed := time.Since(start)
	st := p.Stats()
	mqs := p.MQStats()

	var total, rev uint64
	for w := range delivered {
		total += delivered[w]
		rev += revenue[w]
	}
	tb := harness.NewTable(
		fmt.Sprintf("Mempool churn (%d ops, %d workers, %d senders, cap=%d, m=%d, d=%d, s=%d, k=%d, %.2fs)",
			txs, threads, senders, cfg.Capacity, cfg.Queue.Queues, cfg.Queue.Choices,
			cfg.Queue.Stickiness, cfg.Queue.Batch, elapsed.Seconds()),
		"metric", "value")
	tb.Add("admitted", st.Admitted)
	tb.Add("delivered (churn)", total)
	tb.Add("delivered (drain)", drainPops)
	tb.Add("replaced", st.Replaced)
	tb.Add("evicted", st.Evicted)
	tb.Add("resident (pre-drain)", midStats.Resident)
	tb.Add("revenue (churn)", rev)
	tb.Add("revenue (drain)", drainRevenue)
	tb.Add("rejected (gap/stale/fee/full)", fmt.Sprintf("%d/%d/%d/%d",
		st.RejectedGap, st.RejectedStale, st.RejectedFee, st.RejectedFull))
	tb.Add("tombstones armed/reclaimed", fmt.Sprintf("%d/%d", mqs.Invalidations, mqs.Reclaimed))
	if csv {
		tb.WriteCSV(os.Stdout)
	} else {
		tb.WriteMarkdown(os.Stdout)
	}

	ok := churnErr == nil && drainErr == nil && st.Resident == 0 &&
		st.Popped == total+drainPops && mqs.Invalidations == mqs.Reclaimed
	verdict := "PASS"
	if !ok {
		verdict = "FAIL"
	}
	fmt.Fprintf(os.Stderr, "conservation: %s (admitted %d = popped %d + evicted %d + replaced %d + resident %d; tombstones %d/%d)\n",
		verdict, st.Admitted, st.Popped, st.Evicted, st.Replaced, st.Resident,
		mqs.Invalidations, mqs.Reclaimed)
	if churnErr != nil {
		fmt.Fprintf(os.Stderr, "mempool-sim: churn: %v\n", churnErr)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "mempool-sim: drain: %v\n", drainErr)
	}
	return ok
}

// runFeeQuality runs the single-threaded fee-loss measurement and reports
// the limit verdict.
func runFeeQuality(cfg mempool.Config, wcfg mempool.WorkloadConfig, csv bool) bool {
	q, err := quality.MeasureMempoolRevenue(cfg, wcfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mempool-sim: fee-quality: %v\n", err)
		return false
	}
	tb := harness.NewTable(
		fmt.Sprintf("Mempool fee-revenue quality (trace %d ops, %d senders, single thread)", wcfg.Ops, wcfg.Senders),
		"metric", "relaxed", "exact-head-greedy")
	tb.Add("delivered (trace)", q.PoppedRelaxed, q.PoppedExact)
	tb.Add(fmt.Sprintf("revenue @ %d pops", q.ComparedPops), q.RevenueRelaxed, q.RevenueExact)
	tb.Add("evicted", q.StatsRelaxed.Evicted, q.StatsExact.Evicted)
	tb.Add("fee-loss-frac", fmt.Sprintf("%.4f", q.FeeLossFrac), fmt.Sprintf("limit %.2f", quality.MempoolFeeLossLimit))
	if csv {
		tb.WriteCSV(os.Stdout)
	} else {
		tb.WriteMarkdown(os.Stdout)
	}
	within := q.FeeLossFrac <= quality.MempoolFeeLossLimit &&
		q.FeeLossFrac == q.FeeLossFrac // rejects NaN
	verdict := "PASS"
	if !within {
		verdict = "FAIL"
	}
	fmt.Fprintf(os.Stderr, "fee-loss-within-limit: %s (loss %.4f at %d compared pops, limit %.2f)\n",
		verdict, q.FeeLossFrac, q.ComparedPops, quality.MempoolFeeLossLimit)
	return within
}
