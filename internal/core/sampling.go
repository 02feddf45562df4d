package core

import (
	"unsafe"

	"repro/internal/pad"
	"repro/internal/rng"
)

// Sampler is the sticky d-choice sampling policy shared by the MultiCounter
// and MultiQueue handles — the one place the repository implements the
// paper's choice process (Section 4's "d-sampling" step generalizing the
// two-choice rule of Algorithms 1 and 2).
//
// A Sampler owns a candidate set of d distinct shard indices and a
// stickiness window: the candidate set is re-used for up to window logical
// operations before d fresh indices are drawn, amortising the PRNG draws the
// way the sticky fast path requires (DESIGN.md §2). The paper's exact
// processes are the degenerate settings — window = 1 re-rolls every
// operation, d = 2 is the two-choice rule, and d = 1 is the divergent
// single-choice baseline of ablation A1. Every draw is uniform over all m
// shards, the paper's assumption.
//
// A Sampler is handle-local state: it must only be used by the single
// goroutine that owns the enclosing handle, with that handle's private
// generator.
type Sampler struct {
	m       int
	d       int
	window  int
	left    int
	reroll  bool
	rerolls uint64
	cand    []int
}

// NewSampler returns a sampler drawing d-element candidate sets uniformly
// from {0, …, m−1}, sticky across window logical operations. Candidate sets
// contain d distinct indices: collisions between the d draws are resampled
// at refresh time, so d-choice comparisons never pay redundant shard loads
// (d > m clamps to m, where distinctness forces every index). window < 1
// normalizes to 1 (fresh candidates every operation — the paper's
// unamortised process); d < 1 or m < 1 panic.
func NewSampler(m, d, window int) Sampler {
	if m < 1 {
		panic("core: NewSampler needs m >= 1")
	}
	if d < 1 {
		panic("core: NewSampler needs d >= 1")
	}
	if d > m {
		d = m
	}
	if window < 1 {
		window = 1
	}
	// cand's capacity is rounded up to whole cache lines so the array owns
	// its line: handles minted back to back would otherwise share one on
	// their candidate arrays.
	line := pad.CacheLine / int(unsafe.Sizeof(int(0)))
	return Sampler{m: m, d: d, window: window, cand: make([]int, d, (d+line-1)/line*line)}
}

// Choices returns d, the candidate set size (clamped to m).
func (s *Sampler) Choices() int { return s.d }

// contains reports whether idx already occurs in cand.
func contains(cand []int, idx int) bool {
	for _, c := range cand {
		if c == idx {
			return true
		}
	}
	return false
}

// refresh draws a fresh candidate set: d uniform indices, resampling any
// index that collides with an earlier one — d ≤ m guarantees termination.
// The trace matches d plain Intn(m) draws bit-for-bit except on the ~d²/2m
// of refreshes that collide, where the resample consumes extra draws
// (sampling_test.go's plainSampler pins the collision-free equality).
func (s *Sampler) refresh(r *rng.Xoshiro256) {
	for i := range s.cand {
		idx := r.Intn(s.m)
		for contains(s.cand[:i], idx) {
			idx = r.Intn(s.m)
		}
		s.cand[i] = idx
	}
}

// Candidates returns the current candidate index set, drawing d fresh
// indices from r when the remaining window cannot serve need more logical
// operations (or a Reroll was requested). A candidate set therefore serves
// at most max(window, need) operations: need is the whole batch in batched
// mode, so a batch is never split across candidate sets. The returned slice
// aliases the sampler's internal state — callers must not retain it across
// calls.
func (s *Sampler) Candidates(r *rng.Xoshiro256, need int) []int {
	if s.window <= 1 || s.left < need {
		s.refresh(r)
		s.left = s.window
		s.reroll = false
		return s.cand
	}
	if s.reroll {
		s.refresh(r)
		s.reroll = false
	}
	return s.cand
}

// BestKeyed returns the candidate index minimizing load together with the
// winning load value — the d-choice argmin rule over the MultiQueue's cached
// tops (the MultiCounter handle runs the same rule straight over its cells;
// see argmin). Like the paper's algorithms the loads are read one shard at a
// time with no synchronization, so the winner may be stale by the time the
// caller operates on it; that staleness is the relaxation the analysis
// bounds. Returning the value saves callers a re-read when they dispatch on
// it — the MultiQueue skips stable-empty winners (cpq.TopKeyEmpty) without a
// second atomic load of the winner's top word — so d = 1 performs its single
// load too. BestKeyed does not consume window budget; callers Charge what
// they actually used, so an aborted operation costs nothing.
func (s *Sampler) BestKeyed(r *rng.Xoshiro256, need int, load func(int) uint64) (best int, bestV uint64) {
	cand := s.Candidates(r, need)
	best = cand[0]
	bestV = load(best)
	for _, i := range cand[1:] {
		if v := load(i); v < bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// Charge consumes n logical operations from the stickiness window. Charging
// per element (not per lock acquisition or flush) keeps the window — and so
// the measured relaxation cost — comparable across batch sizes.
func (s *Sampler) Charge(n int) { s.left -= n }

// Reroll requests a fresh draw at the next Candidates call while
// keeping the remaining window budget: the replacement candidates serve only
// the operations the expired ones had left, so an unlucky draw (refused
// try-lock, empty queue) does not grant itself a whole new stickiness window
// — rerolling charges nothing but also earns nothing. The queue handles use
// it on every empty/contended outcome; the semantics are pinned by
// TestSamplerRerollKeepsRemainingBudget.
func (s *Sampler) Reroll() {
	s.reroll = true
	s.rerolls++
}

// Rerolls returns the number of Reroll requests since creation — the
// empty/contended-outcome pressure signal the daemon's /metrics surfaces.
// Handle-local plain state: read it from the goroutine that holds the
// handle, like every other Sampler method.
func (s *Sampler) Rerolls() uint64 { return s.rerolls }
