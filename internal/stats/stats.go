// Package stats provides the small statistical toolkit shared by the
// schedule simulators, the quality audits and the dlin witness: exact
// quantiles, histograms, and the gap/deviation trackers that the paper's
// quality plots report.
//
// Everything here is single-writer; concurrent experiments aggregate
// per-worker instances after the measurement window closes rather than
// sharing a collector, keeping the measured code paths free of extra
// synchronization.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample collects raw values for exact quantiles. It is meant for bounded
// sample counts (quality traces, rank errors), not unbounded throughput data.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add appends a value.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x); s.sorted = false }

// AddInt appends an integer value.
func (s *Sample) AddInt(x int) { s.Add(float64(x)) }

// N returns the number of samples.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation.
// It returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Max returns the largest sample (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// TailFraction returns the fraction of samples strictly greater than x.
func (s *Sample) TailFraction(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	// First index with value > x.
	i := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > x })
	return float64(len(s.xs)-i) / float64(len(s.xs))
}

// Histogram is a power-of-two bucketed histogram for non-negative integer
// observations such as rank errors and contention counts. Bucket i counts
// values in [2^(i-1), 2^i) with bucket 0 holding the zeros.
type Histogram struct {
	buckets [65]int64
}

// Add records a value.
func (h *Histogram) Add(v uint64) {
	h.buckets[bitLen(v)]++
}

// bitLen returns the number of bits needed to represent v (0 for 0).
func bitLen(v uint64) int {
	n := 0
	for v != 0 {
		v >>= 1
		n++
	}
	return n
}

// String renders the non-empty buckets as "range: count" lines.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		fmt.Fprintf(&b, "[%d,%d): %d\n", lo, hi, c)
	}
	return b.String()
}

func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 1
	}
	return 1 << uint(i-1), 1 << uint(i)
}
