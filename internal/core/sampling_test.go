package core

import (
	"testing"

	"repro/internal/counters"
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

func TestSamplerExpire(t *testing.T) {
	s := NewSampler(1024, 2, 100)
	r := rng.NewXoshiro256(4)
	a := append([]int(nil), s.Candidates(r, 1)...)
	s.Expire()
	b := s.Candidates(r, 1)
	if a[0] == b[0] && a[1] == b[1] {
		t.Fatalf("Expire did not force a fresh draw: %v", a)
	}
}

func TestSamplerBestPicksArgmin(t *testing.T) {
	loads := []uint64{9, 3, 7, 1, 8, 2, 6, 4}
	cells := counters.NewSharded(len(loads))
	for i, v := range loads {
		cells.Add(i, v)
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
	if s := NewSampler(4, 2, 0); s.Window() != 1 {
		t.Fatalf("window 0 normalized to %d, want 1", s.Window())
	}
	if s := NewSampler(4, 3, 7); s.Choices() != 3 || s.Window() != 7 {
		t.Fatalf("accessors returned d=%d w=%d", s.Choices(), s.Window())
	}
}
