// Package balance implements the load-balancing processes that the paper's
// analysis lives in: the classic greedy d-choice process, the (1+β)-choice
// relaxation of Peres–Talwar–Wieder, corrupted and stale variants modeling
// adversarial concurrency, and the sequential MultiQueue rank process of
// Alistarh et al. [3]. It also computes the paper's potential functions
// Φ, Ψ, Γ (Section 6.2), which the tests use to check E[Γ(t)] = O(m)
// empirically.
//
// These processes are the sequential randomized relaxations R that the
// concurrent data structures in internal/core are distributionally
// linearizable *to*; internal/dlin performs the mapping.
package balance

import "math"

// State is a vector of m bin weights. Weights are float64 so the same engine
// serves unit balls (MultiCounter) and Exponential(1) weighted balls
// (Theorem 7.1).
type State struct {
	w     []float64
	total float64
}

// NewState returns m empty bins.
func NewState(m int) *State {
	if m <= 0 {
		panic("balance: NewState needs m > 0")
	}
	return &State{w: make([]float64, m)}
}

// M returns the number of bins.
func (s *State) M() int { return len(s.w) }

// Weight returns the weight of bin i.
func (s *State) Weight(i int) float64 { return s.w[i] }

// Weights exposes the raw weight slice (read-only by convention) for
// snapshotting.
func (s *State) Weights() []float64 { return s.w }

// Add places weight w into bin i.
func (s *State) Add(i int, w float64) {
	s.w[i] += w
	s.total += w
}

// Mean returns the average bin weight µ(t).
func (s *State) Mean() float64 { return s.total / float64(len(s.w)) }

// MinMax returns the smallest and largest bin weights.
func (s *State) MinMax() (min, max float64) {
	min, max = s.w[0], s.w[0]
	for _, v := range s.w[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Gap returns max - min, the quantity Lemma 6.8 bounds by O(log m).
func (s *State) Gap() float64 {
	min, max := s.MinMax()
	return max - min
}

// Potential returns Φ(t) = Σ exp(α·y_i), Ψ(t) = Σ exp(−α·y_i) and
// Γ(t) = Φ(t) + Ψ(t), where y_i = x_i − µ(t) (Section 6.2).
func (s *State) Potential(alpha float64) (phi, psi, gamma float64) {
	mu := s.Mean()
	for _, v := range s.w {
		y := v - mu
		phi += math.Exp(alpha * y)
		psi += math.Exp(-alpha * y)
	}
	return phi, psi, phi + psi
}

// LessLoaded returns the index of the lighter of bins i and j (ties go to i,
// matching the paper's "tie broken arbitrarily").
func (s *State) LessLoaded(i, j int) int {
	if s.w[j] < s.w[i] {
		return j
	}
	return i
}

// MoreLoaded returns the index of the heavier of bins i and j.
func (s *State) MoreLoaded(i, j int) int {
	if s.w[j] > s.w[i] {
		return j
	}
	return i
}
