//go:build dlzfail

package fail

import (
	"sync"
	"sync/atomic"
	"time"
)

// Enabled reports whether the failpoint layer is compiled in. In this build
// it is true; call sites guard every Inject with `if fail.Enabled` so the
// default build removes them entirely.
const Enabled = true

// site is one named injection point's runtime state. The hot disarmed path
// touches only the two atomics; everything else is guarded by mu.
type site struct {
	hits  atomic.Uint64 // every Inject call, armed or not
	armed atomic.Bool

	mu    sync.Mutex
	p     Policy
	seen  uint64 // hits observed while armed (After/Every operate on this)
	fires uint64
	prng  uint64        // splitmix64 state, seeded at Arm
	stall chan struct{} // live stall gate for KindStall, nil when none
}

var (
	registry sync.Map // site name -> *site
	seedWord atomic.Uint64
)

// lookup returns the site record for name, creating it on first use so hit
// counters exist for every wired site even before it is armed.
func lookup(name string) *site {
	if v, ok := registry.Load(name); ok {
		return v.(*site)
	}
	v, _ := registry.LoadOrStore(name, &site{})
	return v.(*site)
}

// splitmix64 advances one splitmix64 step.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hashName folds a site name into a 64-bit stream selector (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}

// SetSeed sets the global schedule seed. Each site armed afterwards draws
// its Prob decisions from a private splitmix64 stream seeded with
// seed ^ hash(site), so a fixed seed reproduces each site's fire pattern
// given the same per-site hit order. Call before Arm.
func SetSeed(seed uint64) { seedWord.Store(seed) }

// Arm installs (or replaces) the policy for a named site, resetting its
// armed-hit and fire counters and reseeding its PRNG stream. Releases any
// goroutine stalled on the site's previous policy.
func Arm(name string, p Policy) {
	s := lookup(name)
	s.mu.Lock()
	s.p = p
	s.seen, s.fires = 0, 0
	s.prng = splitmix64(seedWord.Load() ^ hashName(name))
	if s.stall != nil {
		close(s.stall)
		s.stall = nil
	}
	s.armed.Store(true)
	s.mu.Unlock()
}

// Disarm deactivates a site, releasing any goroutine stalled on it. Hit
// counters (Hits) survive; the armed-period counters reset at the next Arm.
func Disarm(name string) {
	s := lookup(name)
	s.mu.Lock()
	s.armed.Store(false)
	if s.stall != nil {
		close(s.stall)
		s.stall = nil
	}
	s.mu.Unlock()
}

// Release unblocks every goroutine currently stalled on a KindStall site
// without disarming it (a later eligible hit stalls again on a fresh gate).
func Release(name string) {
	s := lookup(name)
	s.mu.Lock()
	if s.stall != nil {
		close(s.stall)
		s.stall = nil
	}
	s.mu.Unlock()
}

// Reset disarms every site, releases all stalls and zeroes all counters —
// the between-tests clean slate.
func Reset() {
	registry.Range(func(k, v any) bool {
		s := v.(*site)
		s.mu.Lock()
		s.armed.Store(false)
		if s.stall != nil {
			close(s.stall)
			s.stall = nil
		}
		s.seen, s.fires = 0, 0
		s.mu.Unlock()
		s.hits.Store(0)
		return true
	})
}

// Hits returns the number of Inject calls the named site has observed since
// process start (or the last Reset), armed or not — the wiring proof the
// coverage tests read.
func Hits(name string) uint64 { return lookup(name).hits.Load() }

// Fires returns the number of times the named site's policy actually fired
// since it was last armed.
func Fires(name string) uint64 {
	s := lookup(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fires
}

// Inject evaluates the named site. Disarmed sites count the hit and return
// nil (two atomic operations). Armed sites apply their policy's schedule
// gates (After, Every, Prob, Count) and fire the configured fault: return
// an error (KindError), panic (KindPanic), sleep (KindDelay) or block until
// released (KindStall). The error return is the only outcome a caller must
// handle; delay and stall return nil when they resume.
func Inject(name string) error {
	s := lookup(name)
	s.hits.Add(1)
	if !s.armed.Load() {
		return nil
	}
	s.mu.Lock()
	if !s.armed.Load() { // lost a race with Disarm
		s.mu.Unlock()
		return nil
	}
	p := s.p
	s.seen++
	if s.seen <= p.After {
		s.mu.Unlock()
		return nil
	}
	if p.Every > 1 && (s.seen-p.After)%p.Every != 0 {
		s.mu.Unlock()
		return nil
	}
	if p.Count > 0 && s.fires >= p.Count {
		s.mu.Unlock()
		return nil
	}
	if p.Prob > 0 && p.Prob < 1 {
		s.prng = splitmix64(s.prng)
		// Top 53 bits as a [0,1) fraction.
		if float64(s.prng>>11)/float64(1<<53) >= p.Prob {
			s.mu.Unlock()
			return nil
		}
	}
	s.fires++
	var gate chan struct{}
	if p.Kind == KindStall {
		if s.stall == nil {
			s.stall = make(chan struct{})
		}
		gate = s.stall
	}
	s.mu.Unlock()

	switch p.Kind {
	case KindError:
		return ErrInjected
	case KindPanic:
		panic(InjectedPanic{Site: name})
	case KindDelay:
		time.Sleep(p.Delay)
		return nil
	case KindStall:
		<-gate
		return nil
	}
	return nil
}
