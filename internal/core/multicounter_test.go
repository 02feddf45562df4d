package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dlin"
	"repro/internal/rng"
	"repro/internal/trace"
)

// newMCd returns a per-op counter over m cells with d choices.
func newMCd(m, d int) *MultiCounter {
	return NewMultiCounterConfig(MultiCounterConfig{Topology: Topology{InitialM: m}, Choices: d})
}

func TestMultiCounterSequentialExact(t *testing.T) {
	mc := NewMultiCounter(16)
	h := mc.NewHandle(1)
	const n = 10000
	for i := 0; i < n; i++ {
		h.Increment()
	}
	if mc.Exact() != n {
		t.Fatalf("Exact = %d, want %d", mc.Exact(), n)
	}
}

func TestMultiCounterConcurrentExact(t *testing.T) {
	mc := NewMultiCounter(64)
	const workers, per = 8, 20000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := mc.NewHandle(uint64(w) + 1)
			for i := 0; i < per; i++ {
				h.Increment()
			}
		}(w)
	}
	wg.Wait()
	if mc.Exact() != workers*per {
		t.Fatalf("Exact = %d, want %d (no lost updates allowed)", mc.Exact(), workers*per)
	}
}

func TestMultiCounterReadScaling(t *testing.T) {
	// Read returns m * (one counter); after k increments spread two-choice,
	// every counter is within the gap of k/m, so reads land within
	// m * gap of k.
	m := 64
	mc := NewMultiCounter(m)
	h := mc.NewHandle(2)
	const n = 100000
	for i := 0; i < n; i++ {
		h.Increment()
	}
	gap := float64(mc.Gap())
	for i := 0; i < 1000; i++ {
		v := float64(h.Read())
		if math.Abs(v-n) > float64(m)*gap+float64(m) {
			t.Fatalf("Read = %v deviates more than m*gap=%v from %d", v, float64(m)*gap, n)
		}
	}
}

func TestMultiCounterGapLogarithmic(t *testing.T) {
	// Theorem 6.1's engine: single-threaded (sequential process), the gap
	// stays O(log m).
	for _, m := range []int{16, 64, 256} {
		mc := NewMultiCounter(m)
		h := mc.NewHandle(3)
		for i := 0; i < 100000; i++ {
			h.Increment()
		}
		if g := float64(mc.Gap()); g > 2*math.Log2(float64(m))+4 {
			t.Fatalf("gap %v not O(log m) at m=%d", g, m)
		}
	}
}

func TestMultiCounterConcurrentGapBounded(t *testing.T) {
	// Live concurrency with m >= 8n: the deviation guarantee should hold
	// with a generous envelope (Theorem 6.1 under real scheduling).
	const workers = 4
	m := 16 * workers
	mc := NewMultiCounter(m)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := mc.NewHandle(uint64(w) + 10)
			for i := 0; i < 50000; i++ {
				h.Increment()
			}
		}(w)
	}
	wg.Wait()
	if g := float64(mc.Gap()); g > 4*math.Log2(float64(m))+8 {
		t.Fatalf("concurrent gap %v too large (m=%d)", g, m)
	}
}

func TestSingleChoiceWorseThanTwoChoice(t *testing.T) {
	// Ablation A1 at the data-structure level.
	m := 64
	d1 := newMCd(m, 1)
	d2 := newMCd(m, 2)
	h1, h2 := d1.NewHandle(4), d2.NewHandle(4)
	for i := 0; i < 200000; i++ {
		h1.Increment()
		h2.Increment()
	}
	if d1.Gap() < 4*d2.Gap() {
		t.Fatalf("d=1 gap %d not clearly above d=2 gap %d", d1.Gap(), d2.Gap())
	}
}

func TestFourChoiceTighterOrEqual(t *testing.T) {
	m := 64
	d2 := newMCd(m, 2)
	d4 := newMCd(m, 4)
	h2, h4 := d2.NewHandle(5), d4.NewHandle(5)
	for i := 0; i < 200000; i++ {
		h2.Increment()
		h4.Increment()
	}
	if d4.Gap() > d2.Gap()+2 {
		t.Fatalf("d=4 gap %d worse than d=2 gap %d", d4.Gap(), d2.Gap())
	}
}

func TestSnapshot(t *testing.T) {
	mc := NewMultiCounter(4)
	h := mc.NewHandle(6)
	for i := 0; i < 100; i++ {
		h.Increment()
	}
	snap := make([]uint64, 4)
	mc.Snapshot(snap)
	var sum uint64
	for _, v := range snap {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("snapshot sum %d", sum)
	}
}

func TestMultiCounterPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewMultiCounter(0) did not panic")
			}
		}()
		NewMultiCounter(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Choices -1 did not panic")
			}
		}()
		newMCd(4, -1)
	}()
}

func TestHandleAccessors(t *testing.T) {
	mc := NewMultiCounter(8)
	h := mc.NewHandle(7)
	if h.Counter() != mc {
		t.Fatal("Counter() returned wrong counter")
	}
	if len(mc.cells) != 8 {
		t.Fatalf("m = %d", len(mc.cells))
	}
	// d > m clamps to m, as the handle's sampler does, so Choices reports
	// the d a run actually uses.
	if d := newMCd(4, 8).Choices(); d != 4 {
		t.Fatalf("Choices 8 over m = 4 reports %d, want 4", d)
	}
}

// TestDistributionalLinearizabilityCounter runs a live concurrent execution
// with tracing and replays it through the counter quantitative relaxation:
// the witness must exist (order check passes) and read costs must be within
// the O(m log m) envelope times a generous constant.
func TestDistributionalLinearizabilityCounter(t *testing.T) {
	const workers, per, m = 4, 10000, 64
	mc := NewMultiCounter(m)
	rec := trace.NewRecorder(workers, per+per/10+1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := mc.NewHandle(uint64(w) + 20)
			log := rec.Log(w)
			for i := 0; i < per; i++ {
				h.IncrementTraced(rec, log)
				if i%10 == 0 {
					h.ReadTraced(rec, log)
				}
			}
		}(w)
	}
	wg.Wait()
	events := rec.Merge()
	w, err := dlin.Replay(&dlin.CounterSpec{}, events)
	if err != nil {
		t.Fatalf("witness mapping failed: %v", err)
	}
	if w.Costs.N() == 0 {
		t.Fatal("no cost samples recorded")
	}
	envelope := dlin.Envelope(m)
	if max := w.Costs.Max(); max > 8*envelope {
		t.Fatalf("max read cost %v exceeds 8x envelope %v", max, envelope)
	}
	// The mean cost should be well below the envelope (Theorem 6.1 is a tail
	// bound; the expectation is O(m log m) with small constants).
	if mean := w.Costs.Mean(); mean > 2*envelope {
		t.Fatalf("mean read cost %v exceeds 2x envelope %v", mean, envelope)
	}
	logTail(t, w, m)
}

// logTail reports the witness's empirical tail P[cost > R·envelope] at
// R ∈ {0.25, 0.5, 1, 2}, the Lemma 6.8-style quantity the paper bounds by
// m^(-Ω(R)). It is a report for -v runs, not a bound.
func logTail(t *testing.T, w *dlin.Witness, m int) {
	t.Helper()
	line := "tail P[cost > R·envelope]:"
	for _, pt := range w.Tail(m, 0.25, 0.5, 1, 2) {
		line += fmt.Sprintf("  R=%.2g: %.5f", pt.R, pt.Frac)
	}
	t.Log(line)
}

// TestTimestampsSampleAndTick uses the counter the way internal/stm's
// relaxed TL2 clock does: a per-op handle reads the time and ticks it.
func TestTimestampsSampleAndTick(t *testing.T) {
	mc := NewMultiCounter(32)
	h := mc.NewHandle(8)
	v0 := h.Read()
	for i := 0; i < 3200; i++ {
		h.Increment()
	}
	v1 := h.Read()
	if v1 <= v0 {
		t.Fatalf("timestamp did not advance: %d -> %d", v0, v1)
	}
	if mc.Exact() != 3200 {
		t.Fatalf("Exact = %d", mc.Exact())
	}
}

func TestTimestampsConcurrentSkewBounded(t *testing.T) {
	// Concurrent tickers on per-op handles; afterwards samples from any
	// handle should be within m*gap + m of the true count.
	const workers, per, m = 4, 20000, 64
	mc := NewMultiCounter(m)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := mc.NewHandle(uint64(w) + 30)
			for i := 0; i < per; i++ {
				h.Increment()
			}
		}(w)
	}
	wg.Wait()
	true64 := float64(workers * per)
	gap := float64(mc.Gap())
	h := mc.NewHandle(99)
	for i := 0; i < 100; i++ {
		v := float64(h.Read())
		if math.Abs(v-true64) > float64(m)*gap+float64(m) {
			t.Fatalf("sample %v deviates beyond m*gap from %v", v, true64)
		}
	}
}

func BenchmarkMultiCounterIncrement(b *testing.B) {
	mc := NewMultiCounter(256)
	h := mc.NewHandle(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Increment()
	}
}

func BenchmarkExactVsMultiCounterParallel(b *testing.B) {
	mc := NewMultiCounter(256)
	b.RunParallel(func(pb *testing.PB) {
		h := mc.NewHandle(rng.NewSplitMix64(uint64(b.N)).Next())
		for pb.Next() {
			h.Increment()
		}
	})
}
