// Package stm is a from-scratch implementation of Transactional Locking II
// (Dice, Shalev, Shavit, DISC 2006), the software transactional memory the
// paper accelerates in Section 8 by replacing its global version clock with
// a MultiCounter.
//
// The implementation follows the original commit-time-locking design:
//
//   - every transactional slot is protected by a versioned write-lock: a
//     single word holding a version number and a lock bit;
//   - a transaction samples the global clock at begin (read version rv),
//     validates every read against rv (postvalidated two-load reads),
//     acquires its write locks at commit, obtains a write version wv from
//     the clock, revalidates the read set, publishes values, and releases
//     the locks at version wv;
//   - the global clock is pluggable (the experiment's only variable):
//     FAAClock is TL2's standard fetch-and-add clock, MCClock is the
//     paper's MultiCounter clock with the "write Δ in the future" rule.
//
// The unit of transactional data is Array, a vector of uint64 slots —
// exactly the paper's benchmark shape (M transactional objects, transactions
// increment two random slots).
package stm

import (
	"errors"
	"sync/atomic"
)

// ErrAborted is returned by transactional operations when the transaction
// must be retried. Tx.Run retries automatically.
var ErrAborted = errors.New("stm: transaction aborted")

// vlock is a TL2 versioned write-lock: bit 0 is the lock bit, bits 1..63
// hold the version (the global-clock value at the last write).
type vlock struct {
	w atomic.Uint64
}

func (l *vlock) load() uint64 { return l.w.Load() }

// tryLock CASes the lock bit on, failing if the word is locked or changed.
func (l *vlock) tryLock(observed uint64) bool {
	if observed&1 == 1 {
		return false
	}
	return l.w.CompareAndSwap(observed, observed|1)
}

// unlockTo releases the lock, installing version v.
func (l *vlock) unlockTo(v uint64) { l.w.Store(v << 1) }

// unlockRestore releases the lock, restoring the pre-lock word (abort path).
func (l *vlock) unlockRestore(observed uint64) { l.w.Store(observed) }

func lockedBit(w uint64) bool   { return w&1 == 1 }
func versionOf(w uint64) uint64 { return w >> 1 }

// Array is a vector of transactional uint64 slots with one versioned lock
// per slot. Slots and locks are deliberately unpadded: with M up to 10⁶
// objects the paper's benchmark relies on sparse uniform access, not
// padding, to avoid false sharing — padding 10⁶ locks would blow the cache
// footprint the experiment depends on.
type Array struct {
	vals  []atomic.Uint64
	locks []vlock
}

// NewArray returns an Array of n zeroed slots.
func NewArray(n int) *Array {
	if n <= 0 {
		panic("stm: NewArray needs n > 0")
	}
	return &Array{vals: make([]atomic.Uint64, n), locks: make([]vlock, n)}
}

// ReadDirect returns slot i without transactional protection; valid only at
// quiescence (the post-run verifier).
func (a *Array) ReadDirect(i int) uint64 { return a.vals[i].Load() }

// Sum returns the sum of all slots; valid only at quiescence.
func (a *Array) Sum() uint64 {
	var s uint64
	for i := range a.vals {
		s += a.vals[i].Load()
	}
	return s
}

// MaxVersion returns the largest slot version; valid only at quiescence.
// Used to confirm the Δ future-writing rule advanced object timestamps.
func (a *Array) MaxVersion() uint64 {
	var m uint64
	for i := range a.locks {
		if v := versionOf(a.locks[i].load()); v > m {
			m = v
		}
	}
	return m
}
