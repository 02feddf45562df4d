package core

import "repro/internal/rng"

// affinityRotateEvery is R, the number of earned (window-expiry) candidate
// refreshes a handle's home stripe serves before rotating one stripe width
// around the shard ring; reroll-driven redraws do not advance the clock.
// Rotation bounds the worst-case imbalance of stripe-local choices: every
// shard spends the same fraction of refreshes inside each handle's stripe, so
// over (m/w)·R refreshes a lone handle's d−1 stripe candidates still cover
// the whole ring (the uniform escape candidate reaches everywhere from the
// first refresh). Smaller R tightens the single-handle drift bound at the
// price of colder stripes; 16 keeps the measured rank drift at the committed
// affinity settings within 1.5× of the uniform sampler (EXPERIMENTS.md §5)
// while a stripe still serves 16·max(s,k) operations between moves.
const affinityRotateEvery = 16

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
// single-choice baseline of ablation A1.
//
// A Sampler draws either uniformly over all m shards (NewSampler, the
// paper's assumption) or shard-affine (NewAffineSampler): d−1 candidates
// from a per-handle home stripe of w contiguous indices plus one uniform
// "escape" candidate, the choice-locality policy of DESIGN.md §7.
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

	// Reseed inputs: the requested d before the m-clamp, the affinity
	// fraction and the handle id, retained so a resize epoch can re-derive
	// the whole draw policy at the new m in place (Reseed) — the clamp, the
	// stripe width and the golden-ratio stripe center are all functions of
	// (d0, affinity, handle, m).
	d0       int
	affinity float64
	handle   uint64

	// Stripe (affinity) state. width == 0 selects the uniform draw; width
	// >= d is the home-stripe size w, base its current start on the [0, m)
	// ring, and refreshes counts refreshes since the last rotation.
	width     int
	base      int
	refreshes int
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
	d0 := d
	if d > m {
		d = m
	}
	if window < 1 {
		window = 1
	}
	// cand's capacity is the unclamped d0, so a later Reseed at a larger m
	// can widen the candidate set back toward d0 without allocating.
	return Sampler{m: m, d: d, d0: d0, window: window, cand: make([]int, d, d0)}
}

// NewAffineSampler returns a sampler biased toward a per-handle home stripe:
// each refresh draws d−1 candidates from a window of w = max(d, ⌈affinity·m⌉)
// contiguous shard indices owned by this handle and one uniform escape
// candidate from all of {0, …, m−1}, so no shard is ever unreachable and
// insert-side load still equalizes globally. The stripe rotates one width
// around the ring every affinityRotateEvery window-expiry refreshes,
// bounding worst-case imbalance (DESIGN.md §7).
//
// The stripe start is derived deterministically from handle: stripe centers
// are placed by golden-ratio multiplicative hashing, the n-free
// generalization of the id·m/n layout — for any number of handles with
// sequential ids the centers are low-discrepancy on the ring, so stripes
// tile the shards near-evenly without the structure knowing its handle
// count up front.
//
// affinity must lie in [0, 1]; 0 returns the uniform sampler of NewSampler
// (bit-for-bit: the draw path is shared), and d = 1 degenerates to uniform
// too, since the single candidate is the escape.
func NewAffineSampler(m, d, window int, affinity float64, handle uint64) Sampler {
	if !(affinity >= 0 && affinity <= 1) { // rejects NaN too
		panic("core: NewAffineSampler needs affinity in [0, 1]")
	}
	s := NewSampler(m, d, window)
	s.affinity = affinity
	s.handle = handle
	s.placeStripe()
	return s
}

// placeStripe derives the affinity stripe (width, base) from the sampler's
// current (m, d, affinity, handle), leaving the sampler uniform when
// affinity is 0 or the clamped d degenerates to 1. Shared by construction
// and Reseed so an epoch flip re-places the stripe by exactly the rule the
// constructor used.
func (s *Sampler) placeStripe() {
	s.width, s.base, s.refreshes = 0, 0, 0
	if s.affinity == 0 || s.d == 1 {
		return
	}
	m := s.m
	w := int(s.affinity * float64(m))
	if float64(w) < s.affinity*float64(m) {
		w++ // ceil
	}
	if w < s.d {
		w = s.d
	}
	if w > m {
		w = m
	}
	s.width = w
	// center = frac(handle·φ)·m: the top 32 bits of handle·φ form a 0.32
	// fixed-point fraction of the ring, which the multiply-then-shift
	// scales by m.
	center := int(((s.handle * 0x9e3779b97f4a7c15) >> 32) * uint64(m) >> 32)
	s.base = center - w/2
	if s.base < 0 {
		s.base += m
	}
}

// Reseed re-derives the sampler for a new shard count m — the stale-handle
// half of a resize epoch (DESIGN.md §11). The clamp d = min(d0, m), the
// stripe width and the golden-ratio stripe center are recomputed from the
// retained construction inputs; the candidate set and window budget are
// discarded (the old indices may exceed the new m or target sealed shards),
// so the next Candidates call draws fresh indices at the new topology.
// The candidate slice is resized in place within its original capacity —
// Reseed never allocates, keeping the steady-state 0 allocs/op contract.
func (s *Sampler) Reseed(m int) {
	if m < 1 {
		panic("core: Reseed needs m >= 1")
	}
	s.m = m
	d := s.d0
	if d > m {
		d = m
	}
	s.d = d
	s.cand = s.cand[:d]
	s.placeStripe()
	s.left = 0
	s.reroll = false
}

// Choices returns d, the candidate set size (clamped to m).
func (s *Sampler) Choices() int { return s.d }

// Window returns the stickiness window (>= 1).
func (s *Sampler) Window() int { return s.window }

// Affine reports whether the sampler draws from a home stripe.
func (s *Sampler) Affine() bool { return s.width > 0 }

// Stripe returns the current home stripe as (base, width) on the [0, m)
// ring; width 0 means the sampler is uniform. Exposed for the occupancy
// tests and the quality tooling — the stripe rotates as refreshes accrue.
func (s *Sampler) Stripe() (base, width int) { return s.base, s.width }

// contains reports whether idx already occurs in cand.
func contains(cand []int, idx int) bool {
	for _, c := range cand {
		if c == idx {
			return true
		}
	}
	return false
}

// refresh draws a fresh candidate set. Uniform mode draws d indices in the
// pre-affinity sampler's PRNG call order, resampling any index that
// collides with an earlier one — d ≤ m guarantees termination, and the
// trace matches the PR 4 sampler bit-for-bit except on the ~d²/2m of
// refreshes that used to collide, where the resample consumes extra draws
// (the deliberate dedupe fix; TestSamplerAffinityZeroIdenticalToPR4 pins
// the collision-free equality). Affine mode fills cand[0 : d−1] from the
// home stripe and cand[d−1] with the uniform escape, deduped the same way
// (w ≥ d leaves room for d−1 distinct stripe indices plus the escape), and
// — when the refresh was earned by window expiry rather than a Reroll —
// advances the rotation schedule.
func (s *Sampler) refresh(r *rng.Xoshiro256, rotate bool) {
	if s.width == 0 {
		for i := range s.cand {
			idx := r.Intn(s.m)
			for contains(s.cand[:i], idx) {
				idx = r.Intn(s.m)
			}
			s.cand[i] = idx
		}
		return
	}
	if rotate {
		if s.refreshes++; s.refreshes >= affinityRotateEvery {
			s.refreshes = 0
			if s.base += s.width; s.base >= s.m {
				s.base -= s.m
			}
		}
	}
	for i := 0; i < s.d-1; i++ {
		idx := s.base + r.Intn(s.width)
		if idx >= s.m {
			idx -= s.m
		}
		for contains(s.cand[:i], idx) {
			if idx = s.base + r.Intn(s.width); idx >= s.m {
				idx -= s.m
			}
		}
		s.cand[i] = idx
	}
	idx := r.Intn(s.m)
	for contains(s.cand[:s.d-1], idx) {
		idx = r.Intn(s.m)
	}
	s.cand[s.d-1] = idx
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
		s.refresh(r, true)
		s.left = s.window
		s.reroll = false
		return s.cand
	}
	if s.reroll {
		// A reroll-driven refresh does not advance the stripe rotation
		// clock: empty/contended outcomes can reroll every few microseconds
		// (TryDequeue rerolls per failed attempt), and letting them spin the
		// stripe around the ring would churn exactly the locality the
		// stripe exists to keep. Rotation paces by earned window expiries.
		s.refresh(r, false)
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

// Expire discards the current candidate set AND the remaining window budget:
// the next Candidates call draws fresh indices and starts a full new
// window. Use it when the whole window is invalidated (the structure was
// reconfigured, a drain completed); for an empty or contended candidate that
// merely needs a different draw, Reroll keeps the budget accounting honest.
func (s *Sampler) Expire() { s.left = 0 }

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
// Handle-local plain state: read it from the owning goroutine (or with the
// enclosing lease held), like every other Sampler method.
func (s *Sampler) Rerolls() uint64 { return s.rerolls }
