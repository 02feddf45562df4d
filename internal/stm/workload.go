package stm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// WorkloadConfig describes the paper's TL2 microbenchmark (Section 8): an
// array of Objects transactional slots; each transaction picks two uniformly
// random slots, reads and increments both, and commits.
type WorkloadConfig struct {
	// Objects is M, the array size (10K / 100K / 1M in Figures 1(c)–(e)).
	Objects int
	// Workers is the number of concurrent transaction-executing goroutines.
	Workers int
	// Clock is the global version clock under test.
	Clock Clock
	// Duration is the measured wall-clock window (duration mode).
	Duration time.Duration
	// OpsPerWorker, when positive, switches to fixed-work mode (used by
	// tests for deterministic verification) and ignores Duration.
	OpsPerWorker int64
	// Seed derives all worker streams.
	Seed uint64
	// ZipfTheta, when positive, draws slots from a Zipf(theta) distribution
	// instead of uniform (skew ablation).
	ZipfTheta float64
}

// WorkloadResult aggregates a run.
type WorkloadResult struct {
	Commits uint64
	Aborts  uint64
	Elapsed time.Duration
	// Mops is committed transactions per second, in millions.
	Mops float64
	// Verified reports the paper's post-run exactness check: the array sum
	// must equal exactly 2 increments per committed transaction.
	Verified bool
	// ArraySum and Expected expose the verification operands.
	ArraySum uint64
	Expected uint64
}

// String renders a one-line summary.
func (r WorkloadResult) String() string {
	return fmt.Sprintf("commits=%d aborts=%d mops=%.3f verified=%v",
		r.Commits, r.Aborts, r.Mops, r.Verified)
}

// RunIncrement executes the microbenchmark and verifies the result. The
// verification is the paper's: "we verify correctness by checking that the
// array contents are consistent with the number of executed operations at
// the end of the run".
func RunIncrement(cfg WorkloadConfig) WorkloadResult {
	if cfg.Objects < 2 {
		panic("stm: workload needs at least 2 objects")
	}
	if cfg.Workers < 1 {
		panic("stm: workload needs at least 1 worker")
	}
	arr := NewArray(cfg.Objects)
	var stop atomic.Bool
	txs := make([]*Tx, cfg.Workers)
	streams := rng.Streams(cfg.Seed, 2*cfg.Workers)
	var wg sync.WaitGroup

	body := func(w int) {
		defer wg.Done()
		tx := txs[w]
		draws := streams[2*w]
		var zipf *rng.Zipf
		if cfg.ZipfTheta > 0 {
			zipf = rng.NewZipf(draws, cfg.Objects, cfg.ZipfTheta)
		}
		pick := func() int {
			if zipf != nil {
				return zipf.Next()
			}
			return draws.Intn(cfg.Objects)
		}
		var done int64
		for {
			if cfg.OpsPerWorker > 0 {
				if done >= cfg.OpsPerWorker {
					return
				}
			} else if stop.Load() {
				return
			}
			a, b := pick(), pick()
			for b == a {
				b = pick()
			}
			err := tx.Run(func(t *Tx) error {
				va, err := t.Load(a)
				if err != nil {
					return err
				}
				vb, err := t.Load(b)
				if err != nil {
					return err
				}
				t.Store(a, va+1)
				t.Store(b, vb+1)
				return nil
			})
			if err != nil {
				panic("stm: workload transaction returned non-abort error: " + err.Error())
			}
			done++
		}
	}

	for w := 0; w < cfg.Workers; w++ {
		txs[w] = NewTx(arr, cfg.Clock.NewHandle(streams[2*w+1].Next()), streams[2*w+1].Next())
	}
	start := time.Now()
	wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go body(w)
	}
	if cfg.OpsPerWorker <= 0 {
		time.Sleep(cfg.Duration)
		stop.Store(true)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var res WorkloadResult
	res.Elapsed = elapsed
	for _, tx := range txs {
		res.Commits += tx.Stats.Commits
		res.Aborts += tx.Stats.TotalAborts()
	}
	res.Mops = float64(res.Commits) / elapsed.Seconds() / 1e6
	res.ArraySum = arr.Sum()
	res.Expected = 2 * res.Commits
	res.Verified = res.ArraySum == res.Expected
	return res
}
