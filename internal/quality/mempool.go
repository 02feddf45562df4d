package quality

import (
	"repro/internal/mempool"
)

// MempoolQuality is the result of MeasureMempoolRevenue: how much fee
// revenue the relaxed mempool's delivery order loses against the exact
// sequential reference on the same intent trace. The comparison is taken at
// ComparedPops — the shorter of the two pools' trace delivery counts — so
// both revenue figures price the same number of delivered transactions;
// the tail a fuller pool would deliver later is not the relaxation cost,
// the lower-fee choices inside the shared prefix are.
type MempoolQuality struct {
	// ComparedPops is the delivery-prefix length both revenues are taken at.
	ComparedPops uint64
	// RevenueRelaxed and RevenueExact are the cumulative delivered fees of
	// the two pools after ComparedPops trace deliveries each.
	RevenueRelaxed uint64
	RevenueExact   uint64
	// FeeLossFrac is 1 − RevenueRelaxed/RevenueExact: the fraction of the
	// exact builder's revenue the relaxed pool forgoes by delivering
	// lower-fee heads first. Negative values are possible once bumps or
	// evictions make the two pools' resident sets diverge (the relaxed pool
	// can stumble into a richer state); 0 when the exact revenue is 0.
	FeeLossFrac float64
	// PoppedRelaxed and PoppedExact are the full trace delivery counts
	// (they differ only through divergent rejection/eviction histories).
	PoppedRelaxed uint64
	PoppedExact   uint64
	// StatsRelaxed and StatsExact are the end-of-trace ledgers, before any
	// drain — Resident, Evicted and Replaced give the divergence context
	// for the revenue figures.
	StatsRelaxed mempool.Stats
	StatsExact   mempool.Stats
}

// MempoolFeeLossLimit bounds the fee-revenue fraction the relaxed mempool
// may forgo against the exact head-greedy reference on the default trace
// (MeasureMempoolRevenue's FeeLossFrac) — the acceptance gate at the
// (s=8, k=8, m=256) configuration, read by cmd/quality -mempool and
// cmd/mempool-sim. Measured values run negative (the relaxed pool's
// global-fee pops act as chain lookahead the myopic reference lacks), so the
// gate is an upper bound only.
const MempoolFeeLossLimit = 0.05

// MeasureMempoolRevenue generates one seeded intent trace and replays it
// against a relaxed pool (mempool.New over cfg.Queue) and the exact
// sequential reference (mempool.NewSeq), comparing cumulative delivered fee
// revenue over the trace — the mempool counterpart of MeasureDequeueRank,
// pricing rank relaxation in the fee units a block builder cares about
// rather than in rank positions. Replay is single-threaded for the same
// reason the paper measures quality single-threaded: concurrent delivery
// steps have no canonical order to compare against.
//
// Only deliveries occurring during the trace are priced. A full drain would
// make the two revenues equal by conservation whenever admissions agree —
// the interesting signal is which fees each pool banked while the pools
// were still under load, not the eventual total.
//
// Both pools are conservation-audited after the trace; a violation is
// returned as the error alongside the (still fully populated) measurement.
func MeasureMempoolRevenue(cfg mempool.Config, wcfg mempool.WorkloadConfig) (MempoolQuality, error) {
	num, den := cfg.BumpNum, cfg.BumpDen
	if num == 0 || den == 0 {
		num, den = 110, 100
	}
	ops := mempool.GenOps(wcfg)
	relaxed := mempool.New(cfg)
	h := relaxed.NewHandle(wcfg.Seed*2 + 1)
	defer h.Close()
	exact := mempool.NewSeq(cfg)

	cumR := traceRevenue(h, ops, num, den)
	cumE := traceRevenue(exact, ops, num, den)

	q := MempoolQuality{
		PoppedRelaxed: uint64(len(cumR)),
		PoppedExact:   uint64(len(cumE)),
		StatsRelaxed:  relaxed.Stats(),
		StatsExact:    exact.Stats(),
	}
	k := len(cumR)
	if len(cumE) < k {
		k = len(cumE)
	}
	q.ComparedPops = uint64(k)
	if k > 0 {
		q.RevenueRelaxed = cumR[k-1]
		q.RevenueExact = cumE[k-1]
	}
	if q.RevenueExact > 0 {
		q.FeeLossFrac = 1 - float64(q.RevenueRelaxed)/float64(q.RevenueExact)
	}
	if err := relaxed.CheckConservation(); err != nil {
		return q, err
	}
	return q, exact.CheckConservation()
}

// traceRevenue replays ops against p and returns the cumulative delivered
// fee after each successful trace delivery.
func traceRevenue(p mempool.PoolAPI, ops []mempool.Op, bumpNum, bumpDen uint64) []uint64 {
	cum := make([]uint64, 0, len(ops))
	var sum uint64
	for _, op := range ops {
		ap := mempool.Apply(p, op, bumpNum, bumpDen)
		if ap.Kind == mempool.OpPop && ap.OK {
			sum += ap.Tx.Fee
			cum = append(cum, sum)
		}
	}
	return cum
}
