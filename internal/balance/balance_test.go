package balance

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func log2(m int) float64 { return math.Log2(float64(m)) }

func TestStateBasics(t *testing.T) {
	s := NewState(4)
	if s.M() != 4 {
		t.Fatalf("M = %d", s.M())
	}
	s.Add(0, 2)
	s.Add(1, 6)
	if s.total != 8 || s.Mean() != 2 {
		t.Fatalf("total/Mean = %v/%v", s.total, s.Mean())
	}
	min, max := s.MinMax()
	if min != 0 || max != 6 {
		t.Fatalf("MinMax = %v/%v", min, max)
	}
	if s.Gap() != 6 {
		t.Fatalf("Gap = %v", s.Gap())
	}
}

func TestStatePotentialByHand(t *testing.T) {
	// Weights [0, 2], mean 1, y = [-1, +1]. With α = 1:
	// Φ = e^{-1} + e^{1}, Ψ = e^{1} + e^{-1}, Γ = 2(e + 1/e).
	s := NewState(2)
	s.Add(1, 2)
	phi, psi, gamma := s.Potential(1)
	want := math.E + 1/math.E
	if math.Abs(phi-want) > 1e-12 || math.Abs(psi-want) > 1e-12 {
		t.Fatalf("Φ=%v Ψ=%v, want both %v", phi, psi, want)
	}
	if math.Abs(gamma-2*want) > 1e-12 {
		t.Fatalf("Γ=%v", gamma)
	}
}

func TestLessMoreLoaded(t *testing.T) {
	s := NewState(3)
	s.Add(1, 5)
	if s.LessLoaded(0, 1) != 0 || s.LessLoaded(1, 0) != 0 {
		t.Fatal("LessLoaded wrong")
	}
	if s.MoreLoaded(0, 1) != 1 || s.MoreLoaded(1, 0) != 1 {
		t.Fatal("MoreLoaded wrong")
	}
	// Tie goes to the first argument for LessLoaded.
	if s.LessLoaded(0, 2) != 0 {
		t.Fatal("tie breaking wrong")
	}
}

func TestProbVectorsSumToOne(t *testing.T) {
	f := func(mRaw uint8, rhoRaw, betaRaw uint16) bool {
		m := int(mRaw%200) + 2
		rho := 0.5 + 0.5*float64(rhoRaw)/65535 // [0.5, 1]
		beta := float64(betaRaw) / 65535       // [0, 1]
		sum := func(xs []float64) float64 {
			var s float64
			for _, x := range xs {
				s += x
			}
			return s
		}
		return math.Abs(sum(GoodStepProbs(m, rho))-1) < 1e-9 &&
			math.Abs(sum(OneBetaProbs(m, beta))-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLemma64Majorization numerically verifies the core claim of Lemma 6.4:
// the probability vector of a good(γ) step majorizes the (1+β)-choice
// vector with β = 2γ.
func TestLemma64Majorization(t *testing.T) {
	for _, m := range []int{4, 16, 64, 256, 1024} {
		for _, gamma := range []float64{0.01, 0.05, 0.1, 0.2, 0.5} {
			rho := 0.5 + gamma
			p := GoodStepProbs(m, rho)
			q := OneBetaProbs(m, 2*gamma)
			if !Majorizes(p, q) {
				t.Fatalf("good(%v) step does not majorize (1+%v)-choice at m=%d", gamma, 2*gamma, m)
			}
		}
	}
}

// TestLemma64MajorizationTight confirms the relation is tight: β beyond 2γ
// breaks majorization, so the lemma's β = 2γ is the best constant of this
// form.
func TestLemma64MajorizationTight(t *testing.T) {
	m, gamma := 64, 0.1
	p := GoodStepProbs(m, 0.5+gamma)
	q := OneBetaProbs(m, 3*gamma)
	if Majorizes(p, q) {
		t.Fatal("majorization unexpectedly holds for beta = 3*gamma")
	}
}

func TestTwoChoiceGapLogarithmic(t *testing.T) {
	// Heavily loaded two-choice: gap stays O(log m) — in fact O(log log m),
	// so 2·log2(m) is a generous deterministic-looking envelope for a fixed
	// seed.
	for _, m := range []int{16, 64, 256} {
		res := Run(RunConfig{M: m, Steps: 200_000, Seed: 11, Process: DChoice{D: 2}, SampleEvery: 10_000})
		if g := res.MaxGap(); g > 2*log2(m)+4 {
			t.Fatalf("two-choice gap %v exceeds O(log m) envelope at m=%d", g, m)
		}
	}
}

func TestSingleChoiceDiverges(t *testing.T) {
	// d=1 has gap Θ(sqrt(t·log m / m)); at t=200k, m=64 that is far above
	// the two-choice gap. The ratio is the ablation A1 headline.
	m := 64
	one := Run(RunConfig{M: m, Steps: 200_000, Seed: 12, Process: DChoice{D: 1}, SampleEvery: 0})
	two := Run(RunConfig{M: m, Steps: 200_000, Seed: 12, Process: DChoice{D: 2}, SampleEvery: 0})
	if one.Final.Gap() < 4*two.Final.Gap() {
		t.Fatalf("single-choice gap %v not clearly above two-choice gap %v",
			one.Final.Gap(), two.Final.Gap())
	}
}

func TestThreeChoiceNoWorseThanTwo(t *testing.T) {
	m := 64
	two := Run(RunConfig{M: m, Steps: 200_000, Seed: 13, Process: DChoice{D: 2}})
	three := Run(RunConfig{M: m, Steps: 200_000, Seed: 13, Process: DChoice{D: 3}})
	if three.Final.Gap() > two.Final.Gap()+2 {
		t.Fatalf("three-choice gap %v worse than two-choice %v", three.Final.Gap(), two.Final.Gap())
	}
}

func TestOneBetaGapBounded(t *testing.T) {
	// (1+β) gap is Θ(log m / β) w.h.p.
	m := 64
	for _, beta := range []float64{0.25, 0.5, 1.0} {
		res := Run(RunConfig{M: m, Steps: 200_000, Seed: 14, Process: OneBeta{Beta: beta}, SampleEvery: 10_000})
		bound := 6*log2(m)/beta + 6
		if g := res.MaxGap(); g > bound {
			t.Fatalf("(1+%v) gap %v exceeds %v", beta, g, bound)
		}
	}
}

func TestOneBetaFullBetaMatchesTwoChoice(t *testing.T) {
	m := 64
	ob := Run(RunConfig{M: m, Steps: 100_000, Seed: 15, Process: OneBeta{Beta: 1}})
	tc := Run(RunConfig{M: m, Steps: 100_000, Seed: 15, Process: DChoice{D: 2}})
	if math.Abs(ob.Final.Gap()-tc.Final.Gap()) > 4 {
		t.Fatalf("β=1 gap %v far from two-choice gap %v", ob.Final.Gap(), tc.Final.Gap())
	}
}

func TestCorruptedProcessStillBalanced(t *testing.T) {
	// Lemma 6.5/6.7's message: a bounded fraction of adversarially wrong
	// steps cannot destroy balance. 10% wrong steps keep the gap small.
	m := 64
	res := Run(RunConfig{M: m, Steps: 200_000, Seed: 16,
		Process: Corrupted{WrongProb: 0.1, Rho: 1}, SampleEvery: 10_000})
	if g := res.MaxGap(); g > 4*log2(m)+8 {
		t.Fatalf("corrupted(0.1) gap %v too large", g)
	}
}

func TestCorruptedDegradesWithWrongProb(t *testing.T) {
	m := 64
	low := Run(RunConfig{M: m, Steps: 200_000, Seed: 17, Process: Corrupted{WrongProb: 0.05, Rho: 1}})
	high := Run(RunConfig{M: m, Steps: 200_000, Seed: 17, Process: Corrupted{WrongProb: 0.45, Rho: 1}})
	if high.Final.Gap() < low.Final.Gap() {
		t.Fatalf("more corruption should not improve balance: %v vs %v",
			high.Final.Gap(), low.Final.Gap())
	}
}

func TestStaleProcessBounded(t *testing.T) {
	// Batch/bulletin-board staleness (Berenbrink et al.): refresh period m
	// keeps the gap O(log m).
	m := 64
	res := Run(RunConfig{M: m, Steps: 200_000, Seed: 18, Process: &Stale{Refresh: m}, SampleEvery: 10_000})
	if g := res.MaxGap(); g > 5*log2(m)+8 {
		t.Fatalf("stale(T=m) gap %v too large", g)
	}
}

func TestStaleRefreshOneMatchesTwoChoice(t *testing.T) {
	m := 32
	st := Run(RunConfig{M: m, Steps: 100_000, Seed: 19, Process: &Stale{Refresh: 1}})
	tc := Run(RunConfig{M: m, Steps: 100_000, Seed: 19, Process: DChoice{D: 2}})
	if st.Final.Gap() != tc.Final.Gap() {
		t.Fatalf("stale(T=1) gap %v != two-choice gap %v (same seed)", st.Final.Gap(), tc.Final.Gap())
	}
}

func TestWeightedExponentialBounded(t *testing.T) {
	// Theorem 7.1's step: exponential weights of mean 1 preserve the O(log m)
	// gap under two-choice.
	m := 64
	res := Run(RunConfig{M: m, Steps: 200_000, Seed: 20, Process: DChoice{D: 2},
		Weight: func(r *rng.Xoshiro256) float64 { return r.Exp() }, SampleEvery: 10_000})
	if g := res.MaxGap(); g > 5*log2(m)+10 {
		t.Fatalf("weighted two-choice gap %v too large", g)
	}
}

// TestGammaLinearInM is the empirical Theorem 6.2 / Lemma 6.7 check:
// E[Γ(t)] = O(m), uniformly in t.
func TestGammaLinearInM(t *testing.T) {
	alpha := 0.25
	for _, m := range []int{16, 64, 256} {
		res := Run(RunConfig{M: m, Steps: 100_000, Seed: 21, Process: DChoice{D: 2},
			Alpha: alpha, SampleEvery: 5_000})
		if g := res.MaxGamma(); g > 40*float64(m) {
			t.Fatalf("Γ max %v not O(m) at m=%d", g, m)
		}
		// Stability in t: late Γ within 4x of mid-run Γ (no upward drift).
		n := len(res.Samples)
		mid, late := res.Samples[n/2].Gamma, res.Samples[n-1].Gamma
		if late > 4*mid+float64(m) {
			t.Fatalf("Γ drifting upward: mid=%v late=%v at m=%d", mid, late, m)
		}
	}
}

func TestGammaCorruptedStaysLinear(t *testing.T) {
	// Lemma 6.7's endgame: even with bad steps interleaved, Γ returns to
	// O(m) at window boundaries.
	m, alpha := 64, 0.25
	res := Run(RunConfig{M: m, Steps: 100_000, Seed: 22,
		Process: Corrupted{WrongProb: 0.1, Rho: 0.9}, Alpha: alpha, SampleEvery: 5_000})
	if g := res.MaxGamma(); g > 80*float64(m) {
		t.Fatalf("corrupted Γ max %v not O(m)", g)
	}
}

func TestRunSampling(t *testing.T) {
	res := Run(RunConfig{M: 8, Steps: 1000, Seed: 23, Process: DChoice{D: 2}, SampleEvery: 100})
	// 10 periodic samples plus the final sample.
	if len(res.Samples) != 11 {
		t.Fatalf("samples = %d, want 11", len(res.Samples))
	}
	if res.Samples[len(res.Samples)-1].Step != 1000 {
		t.Fatal("final sample at wrong step")
	}
	if res.Final.total != 1000 {
		t.Fatalf("total weight %v, want 1000", res.Final.total)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := RunConfig{M: 16, Steps: 50_000, Seed: 24, Process: DChoice{D: 2}, Alpha: 0.3, SampleEvery: 1000}
	a, b := Run(cfg), Run(cfg)
	if a.Final.Gap() != b.Final.Gap() || a.MaxGamma() != b.MaxGamma() {
		t.Fatal("same-seed runs diverged")
	}
}

func TestProcessNames(t *testing.T) {
	cases := map[string]Process{
		"greedy[d=2]":                    DChoice{D: 2},
		"(1+beta)[beta=0.500]":           OneBeta{Beta: 0.5},
		"corrupted[wrong=0.10,rho=0.90]": Corrupted{WrongProb: 0.1, Rho: 0.9},
		"stale[T=8]":                     &Stale{Refresh: 8},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Fatalf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

func TestNewStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewState(0) did not panic")
		}
	}()
	NewState(0)
}
