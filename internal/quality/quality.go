// Package quality holds the live-structure quality measurements shared by
// the cmd/ tools — the experiments that drive a real MultiCounter or
// MultiQueue and score it against the paper's theory scales (the rank-error
// audit for Theorem 7.1, the read-deviation audit for Theorem 6.1). It sits
// above internal/core (the structures) and internal/dlin (the spec
// framework) so that core's own tests can keep importing dlin without a
// cycle.
package quality

import (
	"repro/internal/core"
	"repro/internal/dlin"
	"repro/internal/stats"
)

// MeasureDequeueRank is the single-threaded steady-state rank-error
// measurement shared by cmd/quality and bench/'s lib-queue workload:
// drive the handle through a standing buffer of buffer elements, then ops
// enqueue+dequeue pairs, computing each dequeue's rank against a Fenwick
// tree over the logically enqueued labels (the same accounting as the
// dlin.QueueSpec replay). The returned sample holds one rank error per
// dequeue (0 = exact minimum).
//
// The queue must use the default Tick clock (labels dense from 1) and the
// handle must be fresh; measurement stops early if a dequeue comes up empty.
func MeasureDequeueRank(h *core.MQHandle, buffer, ops int) *stats.Sample {
	fw := dlin.NewFenwick(buffer + ops + h.Queue().Batch() + 2)
	for i := 0; i < buffer; i++ {
		fw.Add(int(h.Enqueue(0)), 1)
	}
	sample := stats.NewSample(ops)
	for i := 0; i < ops; i++ {
		fw.Add(int(h.Enqueue(0)), 1)
		it, ok := h.Dequeue()
		if !ok {
			break
		}
		rank := fw.PrefixSum(int(it.Priority))
		fw.Add(int(it.Priority), -1)
		sample.AddInt(int(rank - 1))
	}
	return sample
}

// CounterDeviation is the result of MeasureCounterDeviation: the Figure 1(b)
// quality metrics for one MultiCounter configuration, scored by cmd/quality
// and reported as dev_max by bench/'s lib-counter workload.
type CounterDeviation struct {
	// MaxAbsError is the largest |Read − issued increments| observed across
	// the sample points — the max-deviation the Theorem 6.1 envelope bounds.
	// In batched mode this includes the handle's not-yet-flushed increments,
	// so the audit charges the batching delay honestly.
	MaxAbsError uint64
	// MeanAbsError is the mean |Read − issued| over the sample points.
	MeanAbsError float64
	// MaxGap is the largest max−min bin imbalance observed (the O(log m)
	// quantity driving the deviation bound).
	MaxGap uint64
}

// MeasureCounterDeviation is the single-threaded steady-state deviation
// measurement shared by cmd/quality and bench/'s lib-counter workload — the
// counter counterpart of MeasureDequeueRank. It drives the handle through incs
// increments, sampling Read and Gap at samples evenly spaced points, and
// reports the deviation of the sampled reads from the true issued count
// (Figure 1b's y-axes). The paper measures quality single-threaded because
// concurrent read steps have no canonical order; core's
// TestDistributionalLinearizabilityCounter provides the concurrent
// counterpart via explicit linearization stamps.
//
// A non-nil onSample receives every sample point (issued increments, read
// value, |read − issued|, current gap) — cmd/quality tabulates the Figure
// 1(b) time series through it, so the table and the verdict below it can
// never diverge on the statistic they score.
//
// The handle must be fresh and is NOT flushed at the end: buffered
// increments held by a batched handle count against the measured deviation,
// which is exactly the amortisation cost the audit exists to price.
func MeasureCounterDeviation(h *core.Handle, incs, samples int, onSample func(issued, read, absErr, gap uint64)) CounterDeviation {
	if samples < 1 {
		samples = 1
	}
	every := incs / samples
	if every == 0 {
		every = 1
	}
	var dev CounterDeviation
	var sumErr float64
	var n int
	for i := 1; i <= incs; i++ {
		h.Increment()
		if i%every != 0 {
			continue
		}
		v := h.Read()
		issued := uint64(i)
		e := v - issued
		if v < issued {
			e = issued - v
		}
		if e > dev.MaxAbsError {
			dev.MaxAbsError = e
		}
		sumErr += float64(e)
		n++
		g := h.Counter().Gap()
		if g > dev.MaxGap {
			dev.MaxGap = g
		}
		if onSample != nil {
			onSample(issued, v, e, g)
		}
	}
	if n > 0 {
		dev.MeanAbsError = sumErr / float64(n)
	}
	return dev
}
