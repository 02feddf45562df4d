package core

import (
	"testing"

	"repro/internal/pad"
	"repro/internal/rng"
)

func TestSamplerFreshEveryOpWhenWindowOne(t *testing.T) {
	s := NewSampler(1024, 2, 1)
	r := rng.NewXoshiro256(1)
	a := append([]int(nil), s.Candidates(r, 1)...)
	s.Charge(1)
	b := append([]int(nil), s.Candidates(r, 1)...)
	if a[0] == b[0] && a[1] == b[1] {
		t.Fatalf("window=1 re-used candidates %v", a)
	}
}

func TestSamplerSticksForWindow(t *testing.T) {
	s := NewSampler(1024, 2, 5)
	r := rng.NewXoshiro256(2)
	first := append([]int(nil), s.Candidates(r, 1)...)
	s.Charge(1)
	for i := 0; i < 4; i++ {
		got := s.Candidates(r, 1)
		s.Charge(1)
		if got[0] != first[0] || got[1] != first[1] {
			t.Fatalf("candidates changed inside window at op %d: %v vs %v", i, got, first)
		}
	}
	// Window exhausted: the next draw must be allowed to change (with m=1024
	// a repeat of both indices is vanishingly unlikely).
	next := s.Candidates(r, 1)
	if next[0] == first[0] && next[1] == first[1] {
		t.Fatalf("candidates unchanged after window expiry: %v", next)
	}
}

func TestSamplerNeverSplitsABatch(t *testing.T) {
	// With window 4 and batches of 3, each draw must serve exactly one whole
	// batch: 3 does not divide 4, and the sampler re-rolls rather than split.
	s := NewSampler(1024, 1, 4)
	r := rng.NewXoshiro256(3)
	a := s.Candidates(r, 3)[0]
	s.Charge(3)
	b := s.Candidates(r, 3)[0] // 1 slot left < 3 needed: must re-roll
	if a == b {
		t.Fatalf("sampler split a batch across an expired window (index %d twice)", a)
	}
}

func TestSamplerBestPicksArgmin(t *testing.T) {
	loads := []uint64{9, 3, 7, 1, 8, 2, 6, 4}
	cells := make([]pad.Uint64, len(loads))
	for i, v := range loads {
		cells[i].Add(v)
	}
	s := NewSampler(len(loads), 4, 1)
	r := rng.NewXoshiro256(5)
	for i := 0; i < 100; i++ {
		cand := s.Candidates(r, 1)
		best := argmin(cells, cand)
		s.Charge(1)
		if !contains(cand, best) {
			t.Fatalf("argmin returned %d, not one of the candidates %v", best, cand)
		}
		for _, c := range cand {
			if loads[c] < loads[best] {
				t.Fatalf("argmin returned %d (load %d) but candidate %d has load %d",
					best, loads[best], c, loads[c])
			}
		}
	}
}

func TestSamplerSingleChoiceSkipsLoads(t *testing.T) {
	s := NewSampler(16, 1, 1)
	r := rng.NewXoshiro256(6)
	// No cell may be read for d=1; nil cells, which any read dereferences,
	// prove it.
	i := argmin(nil, s.Candidates(r, 1))
	if i < 0 || i >= 16 {
		t.Fatalf("index %d out of range", i)
	}
}

func TestSamplerPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"m=0": func() { NewSampler(0, 2, 1) },
		"d=0": func() { NewSampler(4, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSampler %s did not panic", name)
				}
			}()
			fn()
		}()
	}
	// window < 1 normalizes instead of panicking.
	if s := NewSampler(4, 2, 0); s.window != 1 {
		t.Fatalf("window 0 normalized to %d, want 1", s.window)
	}
	if s := NewSampler(4, 3, 7); s.d != 3 || s.window != 7 {
		t.Fatalf("accessor returned d=%d, window %d", s.d, s.window)
	}
}

// TestSamplerDedupesCandidates is the regression test for the duplicate-
// candidate waste fix: every candidate set must contain d distinct indices,
// so Best/BestKeyed never pay a redundant load of the same shard. Small m
// with d close to m makes collisions near-certain without the resampling.
func TestSamplerDedupesCandidates(t *testing.T) {
	for _, tc := range []struct{ m, d int }{{4, 4}, {4, 3}, {8, 4}, {2, 2}, {5, 2}} {
		s := NewSampler(tc.m, tc.d, 1)
		r := rng.NewXoshiro256(11)
		for i := 0; i < 2000; i++ {
			cand := s.Candidates(r, 1)
			seen := map[int]bool{}
			for _, c := range cand {
				if c < 0 || c >= tc.m {
					t.Fatalf("m=%d d=%d: index %d out of range", tc.m, tc.d, c)
				}
				if seen[c] {
					t.Fatalf("m=%d d=%d: duplicate candidate %d in %v", tc.m, tc.d, c, cand)
				}
				seen[c] = true
			}
			s.Charge(1)
		}
	}
	// d > m clamps to m (the m >= C·n assumption makes this a degenerate
	// configuration, but it must not loop forever hunting distinct indices).
	if s := NewSampler(3, 8, 1); s.d != 3 {
		t.Fatalf("d > m clamped to %d, want 3", s.d)
	}
}

// TestSamplerRerollKeepsRemainingBudget pins the Reroll semantics the
// queue's empty/contended path relies on: a reroll forces a fresh draw but
// the replacement candidates inherit only the remaining window budget, not
// a whole new window. The sampler has window 10;
// after charging 3 and rerolling, the fresh set must expire after 7 more
// charges, not 10.
func TestSamplerRerollKeepsRemainingBudget(t *testing.T) {
	s := NewSampler(1<<20, 2, 10)
	r := rng.NewXoshiro256(21)
	first := append([]int(nil), s.Candidates(r, 1)...)
	s.Charge(3)
	s.Reroll()
	second := append([]int(nil), s.Candidates(r, 1)...)
	if first[0] == second[0] && first[1] == second[1] {
		t.Fatalf("Reroll did not force a fresh draw: %v", first)
	}
	// The rerolled set serves exactly the 7 remaining operations.
	for i := 0; i < 6; i++ {
		s.Charge(1)
		got := s.Candidates(r, 1)
		if got[0] != second[0] || got[1] != second[1] {
			t.Fatalf("rerolled set changed %d charges into its 7-op budget: %v vs %v", i+1, got, second)
		}
	}
	s.Charge(1) // 7th: budget exhausted
	third := s.Candidates(r, 1)
	if third[0] == second[0] && third[1] == second[1] {
		t.Fatalf("rerolled set survived past the inherited budget: %v", third)
	}
}

// plainSampler is the candidate draw without the dedupe — d independent
// uniform Intn(m) draws per refresh, duplicates allowed — the reference model
// for the identical-trace property below.
type plainSampler struct {
	m, d, window, left int
	cand               []int
}

func (s *plainSampler) candidates(r *rng.Xoshiro256, need int) []int {
	if s.window <= 1 || s.left < need {
		for i := range s.cand {
			s.cand[i] = r.Intn(s.m)
		}
		s.left = s.window
	}
	return s.cand
}

// TestSamplerAffinityZeroIdenticalToPR4 is the identical-trace property:
// NewSampler consumes the same PRNG stream and produces bit-for-bit the same
// candidate sets as plainSampler, for every refresh in which the plain draw
// had no internal collision (the dedupe resamples collisions, which is the
// only divergence — at m = 2^20 the fixed-seed horizon below is
// collision-free, so the traces match end to end).
func TestSamplerAffinityZeroIdenticalToPR4(t *testing.T) {
	const m, d, window, horizon = 1 << 20, 2, 4, 4000
	model := &plainSampler{m: m, d: d, window: window, cand: make([]int, d)}
	uni := NewSampler(m, d, window)
	rm, ru := rng.NewXoshiro256(33), rng.NewXoshiro256(33)
	for op := 0; op < horizon; op++ {
		need := 1 + op%3 // vary need so the batch-refresh branch is covered too
		want := model.candidates(rm, need)
		if want[0] == want[1] {
			t.Fatalf("op %d: reference model drew a collision at m=2^20 — pick another seed", op)
		}
		got := uni.Candidates(ru, need)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("op %d: trace diverged from the reference model: model %v, sampler %v", op, want, got)
			}
		}
		model.left -= need
		uni.Charge(need)
	}
}

// chiSquare computes the chi-square statistic of observed counts against a
// uniform expectation over len(obs) bins.
func chiSquare(obs []int, total int) float64 {
	expected := float64(total) / float64(len(obs))
	var x2 float64
	for _, o := range obs {
		diff := float64(o) - expected
		x2 += diff * diff / expected
	}
	return x2
}

// TestSamplerUniformOccupancyChiSquare checks the uniform sampler's draws
// are uniform over the m shards: the chi-square statistic over a fixed-seed
// sample must stay below a generous bound on the 99.9% quantile for m−1
// degrees of freedom (≈ 112 at m = 64; the run is deterministic, the slack
// guards against the mild dependence the within-set dedupe introduces).
func TestSamplerUniformOccupancyChiSquare(t *testing.T) {
	const m, d, refreshes = 64, 2, 20000
	s := NewSampler(m, d, 1)
	r := rng.NewXoshiro256(44)
	counts := make([]int, m)
	for i := 0; i < refreshes; i++ {
		for _, c := range s.Candidates(r, 1) {
			counts[c]++
		}
	}
	if x2 := chiSquare(counts, refreshes*d); x2 > 160 {
		t.Fatalf("uniform sampler chi-square %.1f > 160 over %d bins", x2, m)
	}
}
