package sched

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func log2(m int) float64 { return math.Log2(float64(m)) }

func TestDeterministic(t *testing.T) {
	cfg := Config{N: 4, M: 64, Ops: 50_000, Seed: 1, Adversary: NewUniform(2), Alpha: 0.25, C: 4}
	a := Run(cfg)
	cfg.Adversary = NewUniform(2) // fresh adversary stream, same seed
	b := Run(cfg)
	if a.WrongChoices != b.WrongChoices || a.Final.Gap() != b.Final.Gap() {
		t.Fatal("same-seed simulations diverged")
	}
}

func TestSingleThreadIsSequential(t *testing.T) {
	// With one thread the read and update are adjacent: zero contention,
	// no wrong choices, and the gap matches the classic two-choice bound.
	res := Run(Config{N: 1, M: 64, Ops: 100_000, Seed: 3, Adversary: &RoundRobin{}, C: 4})
	if res.WrongChoices != 0 {
		t.Fatalf("sequential run had %d wrong choices", res.WrongChoices)
	}
	if res.BadOps != 0 {
		t.Fatalf("sequential run had %d bad ops", res.BadOps)
	}
	if g := res.Final.Gap(); g > 2*log2(64)+4 {
		t.Fatalf("sequential gap %v too large", g)
	}
	if !res.LemmaHolds {
		t.Fatal("Lemma 6.6 violated in sequential run")
	}
}

func TestRoundRobinConcurrent(t *testing.T) {
	// Round-robin with n threads gives every op contention exactly n-1
	// (n-1 other updates scheduled between its read and update).
	n := 8
	res := Run(Config{N: n, M: 8 * n, Ops: 100_000, Seed: 4, Adversary: &RoundRobin{}, C: 4})
	if !res.LemmaHolds {
		t.Fatal("Lemma 6.6 violated under round-robin")
	}
	if res.BadOps != 0 {
		t.Fatalf("round-robin should have no bad ops (contention n-1 << Cn), got %d", res.BadOps)
	}
	if g := res.Final.Gap(); g > 3*log2(8*n)+6 {
		t.Fatalf("round-robin gap %v too large", g)
	}
}

func TestUniformAdversaryBalanced(t *testing.T) {
	n, m := 4, 64
	res := Run(Config{N: n, M: m, Ops: 200_000, Seed: 5, Adversary: NewUniform(6), Alpha: 0.25, C: 4, SampleEvery: 10_000})
	if !res.LemmaHolds {
		t.Fatal("Lemma 6.6 violated under uniform adversary")
	}
	if g := res.Final.Gap(); g > 3*log2(m)+6 {
		t.Fatalf("uniform-adversary gap %v too large", g)
	}
	// Γ stays O(m).
	for _, s := range res.Samples {
		if s.Gamma > 60*float64(m) {
			t.Fatalf("Γ = %v not O(m) at step %d", s.Gamma, s.Step)
		}
	}
}

func TestBlockStampedeBiasedButBalanced(t *testing.T) {
	// The stampede schedule manufactures wrong choices (Section 6.1's bias
	// discussion) yet with m >= 8n the process stays balanced.
	n, m := 8, 64
	res := Run(Config{N: n, M: m, Ops: 200_000, Seed: 7, Adversary: &BlockStampede{}, C: 4})
	if res.WrongChoices == 0 {
		t.Fatal("stampede schedule produced no wrong choices; bias model broken")
	}
	if g := res.Final.Gap(); g > 4*log2(m)+8 {
		t.Fatalf("stampede gap %v too large", g)
	}
	if !res.LemmaHolds {
		t.Fatal("Lemma 6.6 violated under stampede")
	}
}

func TestStampedeWrongChoicesExceedUniform(t *testing.T) {
	n, m := 8, 64
	uni := Run(Config{N: n, M: m, Ops: 100_000, Seed: 8, Adversary: NewUniform(9), C: 4})
	sta := Run(Config{N: n, M: m, Ops: 100_000, Seed: 8, Adversary: &BlockStampede{}, C: 4})
	if sta.WrongChoices <= uni.WrongChoices {
		t.Fatalf("stampede wrong choices %d not above uniform %d",
			sta.WrongChoices, uni.WrongChoices)
	}
}

func TestSlowPokeCreatesBadOpsButLemmaHolds(t *testing.T) {
	// SlowPoke manufactures operations with contention > Cn. Lemma 6.6 is a
	// pigeonhole fact, so it must hold under *every* adversary.
	n, m, c := 4, 64, 4
	res := Run(Config{N: n, M: m, Ops: 100_000, Seed: 10,
		Adversary: &SlowPoke{Delay: 10 * c * n * 2}, C: c})
	if res.BadOps == 0 {
		t.Fatal("slow-poke adversary produced no bad ops; starvation model broken")
	}
	if !res.LemmaHolds {
		t.Fatalf("Lemma 6.6 violated: %d bad ops in a window of %d (n=%d)",
			res.MaxWindowBad, c*n, n)
	}
}

func TestLemma66AcrossAdversaries(t *testing.T) {
	n, m, c := 4, 64, 3
	advs := []Adversary{
		&RoundRobin{}, NewUniform(11), &BlockStampede{}, &SlowPoke{Delay: 500},
	}
	for _, adv := range advs {
		res := Run(Config{N: n, M: m, Ops: 50_000, Seed: 12, Adversary: adv, C: c})
		if !res.LemmaHolds {
			t.Fatalf("Lemma 6.6 violated under %s: MaxWindowBad=%d", adv.Name(), res.MaxWindowBad)
		}
	}
}

func TestContentionHistogramPopulated(t *testing.T) {
	res := Run(Config{N: 4, M: 32, Ops: 10_000, Seed: 13, Adversary: NewUniform(14), C: 4})
	var entries int64
	for _, line := range strings.Split(strings.TrimSpace(res.Contention.String()), "\n") {
		var lo, hi, c int64
		if _, err := fmt.Sscanf(line, "[%d,%d): %d", &lo, &hi, &c); err != nil {
			t.Fatalf("histogram line %q: %v", line, err)
		}
		entries += c
	}
	if entries != res.CompletedOps {
		t.Fatalf("histogram has %d entries, want %d", entries, res.CompletedOps)
	}
}

func TestCompletedOpsAndSteps(t *testing.T) {
	res := Run(Config{N: 2, M: 16, Ops: 1000, Seed: 15, Adversary: &RoundRobin{}, C: 4})
	if res.CompletedOps != 1000 {
		t.Fatalf("CompletedOps = %d", res.CompletedOps)
	}
	// Every op takes exactly 2 steps; the last scheduled steps may include
	// an unfinished read.
	if res.ScheduledSteps < 2000 || res.ScheduledSteps > 2001 {
		t.Fatalf("ScheduledSteps = %d", res.ScheduledSteps)
	}
	if w := res.Final.Mean() * 16; w != 1000 { // M = 16 bins
		t.Fatalf("total weight %v", w)
	}
}

func TestSamplesTaken(t *testing.T) {
	res := Run(Config{N: 2, M: 16, Ops: 1000, Seed: 16, Adversary: &RoundRobin{}, C: 4, SampleEvery: 100})
	if len(res.Samples) != 11 {
		t.Fatalf("samples = %d, want 11", len(res.Samples))
	}
}

func TestGapGrowsWhenMTooSmall(t *testing.T) {
	// Section 9's conjecture territory: m < n under a hostile schedule
	// degrades balance relative to m >> n. We check the *relative* effect.
	n := 16
	small := Run(Config{N: n, M: 4, Ops: 100_000, Seed: 17, Adversary: &BlockStampede{}, C: 4})
	big := Run(Config{N: n, M: 16 * n, Ops: 100_000, Seed: 17, Adversary: &BlockStampede{}, C: 4})
	// Normalize by log m since the bound scales with it.
	if small.Final.Gap()/log2(4) <= big.Final.Gap()/log2(16*n) {
		t.Fatalf("m<n gap/log(m) %v not above m>>n %v",
			small.Final.Gap()/log2(4), big.Final.Gap()/log2(16*n))
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{N: 0, M: 1, Adversary: &RoundRobin{}},
		{N: 1, M: 0, Adversary: &RoundRobin{}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid config did not panic")
				}
			}()
			Run(cfg)
		}()
	}
}

func TestAdversaryNames(t *testing.T) {
	names := map[string]Adversary{
		"round-robin":    &RoundRobin{},
		"uniform":        NewUniform(1),
		"block-stampede": &BlockStampede{},
		"slow-poke":      &SlowPoke{Delay: 1},
	}
	for want, a := range names {
		if a.Name() != want {
			t.Fatalf("Name() = %q, want %q", a.Name(), want)
		}
	}
}
