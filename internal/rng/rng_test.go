package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownSequence(t *testing.T) {
	// Reference values for seed 0 from the SplitMix64 reference
	// implementation.
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
		0xf88bb8a8724c81ec, 0x1b39896a51a8749b,
	}
	for i, w := range want {
		if g := s.Next(); g != w {
			t.Fatalf("SplitMix64(0) output %d = %#x, want %#x", i, g, w)
		}
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed SplitMix64 streams diverged")
		}
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a, b := NewXoshiro256(7), NewXoshiro256(7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed Xoshiro256 streams diverged")
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a, b := NewXoshiro256(1), NewXoshiro256(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds matched %d/100 outputs", same)
	}
}

func TestXoshiroZeroSeedValid(t *testing.T) {
	x := NewXoshiro256(0)
	var acc uint64
	for i := 0; i < 100; i++ {
		acc |= x.Next()
	}
	if acc == 0 {
		t.Fatal("seed-0 generator emitted only zeros")
	}
}

func TestUint64nBounds(t *testing.T) {
	x := NewXoshiro256(1)
	for _, n := range []uint64{1, 2, 3, 7, 64, 1000, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := x.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nBoundsQuick(t *testing.T) {
	x := NewXoshiro256(99)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return x.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewXoshiro256(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			NewXoshiro256(1).Intn(n)
		}()
	}
}

// TestUint64nGolden pins Uint64n and Intn draws to recorded outputs, so that
// a change to the multiply-shift (or its 128-bit product) cannot silently
// move any d-choice trace. The n values reach the product's high word and,
// at 2^63+5, the rejection loop about every other draw.
func TestUint64nGolden(t *testing.T) {
	for _, c := range []struct {
		seed, n uint64
		want    []uint64
	}{
		{1, 3, []uint64{2, 1, 1, 1, 2, 0}},
		{1, 64, []uint64{0x2c, 0x21, 0x24, 0x19, 0x2c, 0x9}},
		{1, 1<<32 + 1, []uint64{0xb3f2af6d, 0x853b5596, 0x92f89756, 0x642e1c7c, 0xb27a48e3, 0x24c12312}},
		{1, 1<<63 + 5, []uint64{0x429daacb239b2677, 0x497c4bab0415228c, 0x593d24714d119b3c, 0x1260918937fed391, 0x6efeda455cf6a514, 0x469e6dc61d52d8ea}},
		{0xC0FFEE, 3, []uint64{0, 1, 2, 0, 2, 0}},
		{0xC0FFEE, 64, []uint64{0x4, 0x23, 0x3c, 0x14, 0x3d, 0x13}},
		{0xC0FFEE, 1<<32 + 1, []uint64{0x120e99a6, 0x8f989efa, 0xf0a28eb3, 0x50c29bfe, 0xf763eb3f, 0x4eca86e0}},
		{0xC0FFEE, 1<<63 + 5, []uint64{0x47cc4f7cbb99ea5c, 0x28614dff439a7aea, 0x27654370149f4db7, 0x29a57d186d77650c, 0x7de60c59a2b44b15, 0xbca79fab8718ea2}},
	} {
		x := NewXoshiro256(c.seed)
		for i, w := range c.want {
			if g := x.Uint64n(c.n); g != w {
				t.Fatalf("seed %#x: Uint64n(%d) draw %d = %#x, want %#x", c.seed, c.n, i, g, w)
			}
		}
	}
	for _, c := range []struct {
		n    int
		want []int
	}{
		{3, []int{2, 0, 2, 2, 2, 2}},
		{64, []int{44, 17, 53, 62, 63, 55}},
		{1<<32 + 1, []int{3008953080, 1197227414, 3606172490, 4213782644, 4255712493, 3748535524}},
	} {
		x := NewXoshiro256(7)
		for i, w := range c.want {
			if g := x.Intn(c.n); g != w {
				t.Fatalf("seed 7: Intn(%d) draw %d = %d, want %d", c.n, i, g, w)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square-style tolerance: 10 buckets, 100k draws; each bucket
	// expects 10k with std ~95, so ±5% is ~5 sigma.
	x := NewXoshiro256(3)
	const buckets, draws = 10, 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[x.Uint64n(buckets)]++
	}
	for b, c := range counts {
		if c < draws/buckets*95/100 || c > draws/buckets*105/100 {
			t.Fatalf("bucket %d count %d deviates more than 5%% from %d", b, c, draws/buckets)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(4)
	for i := 0; i < 100000; i++ {
		v := x.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	x := NewXoshiro256(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += x.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestExpMeanOne(t *testing.T) {
	x := NewXoshiro256(6)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := x.Exp()
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exp mean %v too far from 1", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	x := NewXoshiro256(7)
	for i := 0; i < 100; i++ {
		if x.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !x.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	x := NewXoshiro256(8)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if x.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate %v", rate)
	}
}

func TestJumpDisjoint(t *testing.T) {
	a := NewXoshiro256(11)
	b := NewXoshiro256(11)
	b.Jump()
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			t.Fatal("jumped stream collided with base stream")
		}
	}
}

func TestStreams(t *testing.T) {
	ss := Streams(12, 4)
	if len(ss) != 4 {
		t.Fatalf("Streams returned %d generators", len(ss))
	}
	// All pairwise first outputs differ.
	outs := map[uint64]bool{}
	for _, s := range ss {
		v := s.Next()
		if outs[v] {
			t.Fatal("two streams produced the same first output")
		}
		outs[v] = true
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	x := NewXoshiro256(13)
	z := NewZipf(x, 100, 0.99)
	var counts [100]int
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 50 heavily under theta ~ 1.
	if counts[0] < 10*counts[50] {
		t.Fatalf("Zipf insufficiently skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Broad monotonicity: first decile outweighs last decile.
	var first, last int
	for i := 0; i < 10; i++ {
		first += counts[i]
		last += counts[90+i]
	}
	if first <= last {
		t.Fatalf("Zipf head %d not heavier than tail %d", first, last)
	}
}

func TestZipfHigherThetaMoreSkewed(t *testing.T) {
	xa, xb := NewXoshiro256(14), NewXoshiro256(14)
	za, zb := NewZipf(xa, 1000, 0.5), NewZipf(xb, 1000, 1.5)
	const draws = 100000
	hitsA, hitsB := 0, 0
	for i := 0; i < draws; i++ {
		if za.Next() == 0 {
			hitsA++
		}
		if zb.Next() == 0 {
			hitsB++
		}
	}
	if hitsB <= hitsA {
		t.Fatalf("theta=1.5 head hits %d not above theta=0.5 head hits %d", hitsB, hitsA)
	}
}

func TestZipfPanics(t *testing.T) {
	x := NewXoshiro256(1)
	for _, fn := range []func(){
		func() { NewZipf(x, 0, 1) },
		func() { NewZipf(x, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("NewZipf with invalid args did not panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkXoshiroNext(b *testing.B) {
	x := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Next()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	x := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Uint64n(1000)
	}
	_ = sink
}
