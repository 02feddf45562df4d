package main

import (
	"math"
	"slices"
	"sort"

	"repro/internal/stats"
)

// segments is the number of equal parts, by operation count, a timed run is
// cut into. Every rate and latency the benchmark reports is the median of the
// per-segment values: one preempted segment on a shared box then moves the
// reported number not at all, where it would move a whole-run mean by a fifth
// of its own size.
const segments = 5

// median returns the median of xs (the mean of the middle pair for an even
// count) without reordering the caller's slice; 0 for an empty one.
func median(xs []float64) float64 {
	s := stats.NewSample(len(xs))
	for _, x := range xs {
		s.Add(x)
	}
	return s.Quantile(0.5)
}

// interquartileMean is the mean of the middle half of xs.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// quantileU32 returns the q-quantile (nearest rank) of an ascending slice.
func quantileU32(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// summary is one reported number: the median of its per-segment (or
// per-repeat) values, with the smallest and the largest beside it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// summarize reduces per-segment values to their median, minimum and maximum.
func summarize(unit string, xs ...float64) summary {
	s := summary{Value: median(xs), Unit: unit, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// spread is (max − min) ÷ median of a summary: the benchmark's own measure of
// how far its segments disagree.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Value)
}

// segmentBounds returns the half-open index range of segment k when n items
// are cut into segments equal parts.
func segmentBounds(n, k int) (lo, hi int) {
	return n * k / segments, n * (k + 1) / segments
}

// segmentQuantiles cuts each caller's per-request latencies (nanoseconds, in
// issue order) into segments, pools the callers within a segment and takes
// each of the quantiles qs of each pool, in microseconds: one slice per q, one
// value per segment that has samples. keep filters the samples (nil keeps
// all).
func segmentQuantiles(perCaller [][]uint32, keep func(caller, i int) bool, qs ...float64) [][]float64 {
	vals := make([][]float64, len(qs))
	for k := 0; k < segments; k++ {
		var pool []uint32
		for c, lat := range perCaller {
			lo, hi := segmentBounds(len(lat), k)
			if keep == nil {
				pool = append(pool, lat[lo:hi]...)
				continue
			}
			for i := lo; i < hi; i++ {
				if keep(c, i) {
					pool = append(pool, lat[i])
				}
			}
		}
		if len(pool) == 0 {
			continue
		}
		slices.Sort(pool)
		for j, q := range qs {
			vals[j] = append(vals[j], quantileU32(pool, q)/1e3)
		}
	}
	return vals
}

// latencySummaries summarizes segmentQuantiles, one summary per q.
func latencySummaries(perCaller [][]uint32, keep func(caller, i int) bool, qs ...float64) []summary {
	out := make([]summary, len(qs))
	for j, vals := range segmentQuantiles(perCaller, keep, qs...) {
		out[j] = summarize("us", vals...)
	}
	return out
}

// latencySummary is latencySummaries for one quantile.
func latencySummary(perCaller [][]uint32, q float64, keep func(caller, i int) bool) summary {
	return latencySummaries(perCaller, keep, q)[0]
}

// segmentNanos is the time one caller spent in segment k and the number of
// latency samples it took there.
func segmentNanos(lat []uint32, k int) (ns, samples float64) {
	lo, hi := segmentBounds(len(lat), k)
	for _, d := range lat[lo:hi] {
		ns += float64(d)
	}
	return ns, float64(hi - lo)
}

// callerTimeSummary reports the callers' own time per unit of work: for each
// segment, the time the callers spent in it, summed, divided by units of work
// done in it (perItem units per latency sample), scaled by scale.
func callerTimeSummary(unit string, perCaller [][]uint32, perItem, scale float64) summary {
	var vals []float64
	for k := 0; k < segments; k++ {
		var total, items float64
		for _, lat := range perCaller {
			ns, samples := segmentNanos(lat, k)
			total += ns
			items += samples * perItem
		}
		if items > 0 {
			vals = append(vals, total/items*scale)
		}
	}
	return summarize(unit, vals...)
}

// segmentRates is work per second, segment by segment: the sum over callers
// of the caller's own rate in that segment (perItem units of work per latency
// sample). Callers run the same count, so their segments nearly coincide in
// time and the sum is the system's rate.
func segmentRates(perCaller [][]uint32, perItem float64) []float64 {
	var vals []float64
	for k := 0; k < segments; k++ {
		var rate float64
		for _, lat := range perCaller {
			if ns, samples := segmentNanos(lat, k); ns > 0 {
				rate += samples * perItem / (ns / 1e9)
			}
		}
		if rate > 0 {
			vals = append(vals, rate)
		}
	}
	return vals
}

// rateSummary summarizes segmentRates.
func rateSummary(unit string, perCaller [][]uint32, perItem float64) summary {
	return summarize(unit, segmentRates(perCaller, perItem)...)
}

// requestMetrics fills the three metrics every untraced run takes from its
// per-caller latencies: work per second, and the median and 99th percentile
// request.
func (r *result) requestMetrics(lat [][]uint32, perItem float64) {
	r.Metrics["ops_per_s"] = rateSummary("1/s", lat, perItem)
	q := latencySummaries(lat, nil, 0.50, 0.99)
	r.Metrics["req_p50_us"], r.Metrics["req_p99_us"] = q[0], q[1]
}
