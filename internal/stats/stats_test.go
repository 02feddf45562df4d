package stats

import (
	"math"
	"strings"
	"testing"
)

// Merge appends all values from another sample.
func (s *Sample) Merge(o *Sample) { s.xs = append(s.xs, o.xs...); s.sorted = false }

// Merge folds another histogram into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// count returns the number of recorded values, summed over the buckets.
func (h *Histogram) count() (n int64) {
	for _, c := range h.buckets {
		n += c
	}
	return n
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.AddInt(i)
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Fatalf("q1 = %v", q)
	}
	if q := s.Quantile(0.5); math.Abs(q-50.5) > 1e-9 {
		t.Fatalf("median = %v", q)
	}
	if q := s.Quantile(0.99); math.Abs(q-99.01) > 1e-9 {
		t.Fatalf("p99 = %v", q)
	}
	if s.Max() != 100 {
		t.Fatalf("Max = %v", s.Max())
	}
	if m := s.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(4)
	if s.Quantile(0.5) != 0 || s.Max() != 0 || s.Mean() != 0 || s.TailFraction(1) != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleTailFraction(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 10; i++ {
		s.AddInt(i)
	}
	if f := s.TailFraction(7); math.Abs(f-0.3) > 1e-9 {
		t.Fatalf("TailFraction(7) = %v", f)
	}
	if f := s.TailFraction(10); f != 0 {
		t.Fatalf("TailFraction(max) = %v", f)
	}
	if f := s.TailFraction(0); f != 1 {
		t.Fatalf("TailFraction(0) = %v", f)
	}
}

func TestSampleMerge(t *testing.T) {
	a, b := NewSample(0), NewSample(0)
	a.Add(1)
	b.Add(3)
	a.Merge(b)
	if a.N() != 2 || a.Max() != 3 {
		t.Fatal("merge failed")
	}
}

func TestSampleQuantileAfterAdd(t *testing.T) {
	// Adding after a quantile query must re-sort.
	s := NewSample(0)
	s.Add(5)
	_ = s.Quantile(0.5)
	s.Add(1)
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("quantile after Add = %v, want 1", q)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(1)
	h.Add(2)
	h.Add(3)
	h.Add(1024)
	if h.count() != 5 {
		t.Fatalf("count = %d", h.count())
	}
	out := h.String()
	for _, want := range []string{"[0,1): 1", "[1,2): 1", "[2,4): 2", "[1024,2048): 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram output %q missing %q", out, want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Add(5)
	b.Add(5)
	b.Add(100)
	a.Merge(&b)
	if a.count() != 3 {
		t.Fatalf("merged count = %d", a.count())
	}
}

func TestBitLen(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, math.MaxUint64: 64}
	for v, want := range cases {
		if g := bitLen(v); g != want {
			t.Fatalf("bitLen(%d) = %d, want %d", v, g, want)
		}
	}
}
