// Package mempool is a fee-priority transaction pool served from the
// relaxed MultiQueue — the first workload in this repository that mutates
// queued elements (replace-by-fee, capacity eviction) instead of only
// inserting and removing minima, built on the lazy-tombstone interior
// removal that core.MQHandle.Remove/Replace expose (DESIGN.md §9).
//
// Transactions are keyed by (sender, nonce). The pool enforces:
//
//   - per-sender nonce contiguity: the resident nonces of a sender are
//     exactly [nextDeliver, nextAdmit); admissions must use nonce ==
//     nextAdmit (gaps are rejected), and delivery hands a sender's
//     transactions out in nonce order regardless of fee order;
//   - dedupe + replace-by-fee: re-admitting a resident (sender, nonce) is a
//     replacement and must bump the fee by the configured factor, or it is
//     rejected;
//   - capacity-bounded eviction: when full, the lowest-fee resident is
//     evicted together with every higher nonce of its sender (contiguity
//     would otherwise break), and the newcomer must outbid the victim.
//
// Pop serves the highest-fee deliverable transaction the relaxed structure
// surfaces: fees map to MultiQueue priorities by bitwise complement (the
// fee bound MaxFee keeps the complement's truncation to the 48-bit top word
// order-exact), and a popped transaction whose nonce predecessor has not
// been delivered yet parks until promotion. Rank relaxation therefore never
// reorders one sender's chain; it only perturbs fee order across senders —
// the revenue cost of that perturbation is the quality metric
// quality.MeasureMempoolRevenue reports and cmd/mempool-sim audits.
//
// SeqPool implements the same admission policy over an exact max-fee
// delivery rule; the differential tests replay identical traces against
// both and cmd/quality -mempool reports the fee-revenue gap.
package mempool

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/cpq"
	"repro/internal/heap"
)

// MaxFee bounds admissible fees to 2^48 − 1 so that the complemented
// priority ^fee keeps its high 16 bits constant and the MultiQueue's 48-bit
// truncated top-word comparisons order fees exactly (cpq.TopPrioBits).
const MaxFee = (uint64(1) << 48) - 1

// Admission errors. All are sticky-free: a rejected admission leaves the
// pool unchanged.
var (
	// ErrFeeOutOfRange rejects fee == 0 or fee > MaxFee.
	ErrFeeOutOfRange = errors.New("mempool: fee out of range")
	// ErrStaleNonce rejects a nonce below the sender's delivery frontier —
	// that slot was already delivered (or never admitted and passed over).
	ErrStaleNonce = errors.New("mempool: nonce already delivered")
	// ErrNonceGap rejects a nonce above the sender's next admission slot;
	// residency stays contiguous per sender.
	ErrNonceGap = errors.New("mempool: nonce gap")
	// ErrFeeTooLow rejects a replacement whose fee does not exceed the
	// resident fee by the configured bump factor (this is also the dedupe
	// path: re-admitting an identical transaction lands here).
	ErrFeeTooLow = errors.New("mempool: replacement fee below bump threshold")
	// ErrPoolFull rejects an admission that cannot fund an eviction: the
	// pool is at capacity and the newcomer does not outbid the lowest-fee
	// resident, or the victim would be the newcomer's own sender.
	ErrPoolFull = errors.New("mempool: pool full")
)

// TxID identifies a transaction by (sender, nonce).
type TxID struct {
	Sender uint64
	Nonce  uint64
}

// Tx is one admitted transaction. Serial is the pool-assigned admission
// serial — unique for every admitted version (replacements get a fresh
// one), and the value the MultiQueue carries.
type Tx struct {
	Sender uint64
	Nonce  uint64
	Fee    uint64
	Serial uint64
}

// Config configures New. The zero value of optional fields selects
// defaults.
type Config struct {
	// Queue configures the underlying relaxed MultiQueue (Topology, Choices,
	// Stickiness, Batch, Affinity...). Queue.Topology.InitialM (or
	// the deprecated Queue.Queues) is required. An elastic Topology works
	// here: outstanding ElemRefs survive resize epochs through the queue's
	// forwarding table, so Remove/Replace keep landing after a shrink.
	// The pool installs its own Clock-free priority scheme.
	Queue core.MultiQueueConfig
	// Capacity bounds the number of resident (admitted, undelivered)
	// transactions; 0 means unbounded. At capacity, admissions evict the
	// lowest-fee resident (plus its sender's higher nonces) or are refused.
	Capacity int
	// BumpNum/BumpDen set the replace-by-fee factor: a replacement needs
	// newFee > oldFee and newFee·BumpDen ≥ oldFee·BumpNum (compared in 128
	// bits, so no overflow). Zero values select 110/100 (+10%).
	BumpNum, BumpDen uint64
	// Seed seeds the pool's internal pop handle.
	Seed uint64
}

// txState tracks where a resident transaction physically lives.
type txState uint8

const (
	// stateQueued: in the shared MultiQueue (or the pop handle's prefetch
	// buffer, which DropPrefetched disambiguates at removal time).
	stateQueued txState = iota
	// stateParked: popped by fee order before its nonce predecessor was
	// delivered; waiting for promotion.
	stateParked
	// stateReady: promoted — next Pop calls deliver ready transactions
	// first, in promotion order.
	stateReady
)

type txEntry struct {
	tx    Tx
	ref   core.ElemRef // valid while state == stateQueued
	state txState
}

type senderState struct {
	// Resident nonces are exactly [nextDeliver, nextAdmit).
	nextDeliver uint64
	nextAdmit   uint64
}

// Stats is a point-in-time snapshot of the pool's ledger. The conservation
// identity Admitted = Popped + Evicted + Replaced + Resident holds exactly
// at quiescence (CheckConservation asserts it plus the physical placement
// of every resident transaction).
type Stats struct {
	Admitted uint64 // successful admissions, including replacements
	Popped   uint64 // transactions delivered by Pop
	Replaced uint64 // old versions displaced by replace-by-fee
	Evicted  uint64 // residents removed by capacity eviction (incl. cascades)
	Resident uint64 // admitted, not yet delivered/evicted/replaced

	Parked uint64 // residents popped out of nonce order, awaiting promotion
	Ready  uint64 // promoted residents awaiting delivery

	Revenue    uint64 // sum of delivered fees
	EvictedFee uint64 // sum of fees lost to eviction (victims + cascades)

	RejectedFee   uint64 // ErrFeeTooLow + ErrFeeOutOfRange outcomes
	RejectedGap   uint64 // ErrNonceGap outcomes
	RejectedStale uint64 // ErrStaleNonce outcomes
	RejectedFull  uint64 // ErrPoolFull outcomes
}

// Pool is the relaxed fee-priority transaction pool. All methods are safe
// for concurrent use: policy state is guarded by one mutex, and the
// MultiQueue underneath supplies the relaxed fee ordering that makes pop
// decisions cheap. Create per-worker admission handles with NewHandle.
type Pool struct {
	mu sync.Mutex
	mq *core.MultiQueue
	// popH performs every dequeue and physical removal under mu. Routing
	// all removals through the one handle that prefetches keeps the ElemRef
	// residency contract local: a transaction is either in the shared
	// structure or in popH's prefetch buffer, never in a third place.
	popH *core.MQHandle

	senders  map[uint64]*senderState
	byID     map[TxID]*txEntry
	bySerial map[uint64]*txEntry
	// evict is the lazy min-fee index over residents: entries are
	// (fee, serial) pushed at admission/replacement and validated against
	// bySerial at pop time (a serial that is gone, or whose current fee
	// differs, is stale and skipped).
	evict      *heap.Binary
	ready      []*txEntry
	parked     int
	queued     int
	nextSerial uint64

	capacity         int
	bumpNum, bumpDen uint64
	st               Stats
}

// New returns an empty pool over a fresh relaxed MultiQueue built from
// cfg.Queue.
func New(cfg Config) *Pool {
	if cfg.BumpNum == 0 || cfg.BumpDen == 0 {
		cfg.BumpNum, cfg.BumpDen = 110, 100
	}
	if cfg.BumpNum < cfg.BumpDen {
		panic("mempool: bump factor must be >= 1")
	}
	mq := core.NewMultiQueue(cfg.Queue)
	return &Pool{
		mq:       mq,
		popH:     mq.NewHandle(cfg.Seed*2 + 1),
		senders:  make(map[uint64]*senderState),
		byID:     make(map[TxID]*txEntry),
		bySerial: make(map[uint64]*txEntry),
		evict:    heap.NewBinary(1024),
		capacity: cfg.Capacity,
		bumpNum:  cfg.BumpNum,
		bumpDen:  cfg.BumpDen,
	}
}

// Handle is a per-worker admission front end: it carries its own MultiQueue
// insert handle so concurrent admitters spread across the sticky uniform
// insert rule, while policy decisions serialize on the pool mutex. A Handle
// must be used by one goroutine at a time.
type Handle struct {
	p   *Pool
	mqh *core.MQHandle
}

// NewHandle returns an admission handle seeded with seed.
func (p *Pool) NewHandle(seed uint64) *Handle {
	return &Handle{p: p, mqh: p.mq.NewHandle(seed)}
}

// Close retires the handle's MultiQueue state. Located inserts never
// buffer, so nothing is lost if Close is skipped; it exists for symmetry
// with core handle hygiene.
func (h *Handle) Close() { h.mqh.Close() }

// Pool returns the pool this handle admits into.
func (h *Handle) Pool() *Pool { return h.p }

// bumped reports whether newFee clears the replace-by-fee threshold over
// oldFee: newFee > oldFee and newFee·bumpDen ≥ oldFee·bumpNum, compared in
// 128 bits so MaxFee-scale fees cannot overflow.
func (p *Pool) bumped(oldFee, newFee uint64) bool {
	if newFee <= oldFee {
		return false
	}
	nhi, nlo := bits.Mul64(newFee, p.bumpDen)
	ohi, olo := bits.Mul64(oldFee, p.bumpNum)
	return nhi > ohi || (nhi == ohi && nlo >= olo)
}

func (p *Pool) sender(s uint64) *senderState {
	ss := p.senders[s]
	if ss == nil {
		ss = &senderState{}
		p.senders[s] = ss
	}
	return ss
}

// feePriority maps a fee to its MultiQueue priority: complement, so higher
// fees pop first. With fee ≤ MaxFee the top 16 bits are constant ones and
// the 48-bit truncated top-word order equals fee order exactly.
func feePriority(fee uint64) uint64 { return ^fee }

// Admit admits (sender, nonce, fee) through this handle. nonce must be the
// sender's next admission slot (NextAdmit) for a new transaction, or an
// undelivered resident nonce for a replace-by-fee. Returns nil on success.
func (h *Handle) Admit(sender, nonce, fee uint64) error {
	p := h.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if fee == 0 || fee > MaxFee {
		p.st.RejectedFee++
		return ErrFeeOutOfRange
	}
	ss := p.sender(sender)
	switch {
	case nonce < ss.nextDeliver:
		p.st.RejectedStale++
		return ErrStaleNonce
	case nonce > ss.nextAdmit:
		p.st.RejectedGap++
		return ErrNonceGap
	case nonce < ss.nextAdmit:
		return p.replaceLocked(h, sender, nonce, fee)
	}
	// New admission at the contiguity frontier.
	if p.capacity > 0 && len(p.byID) >= p.capacity {
		if err := p.evictForLocked(sender, fee); err != nil {
			p.st.RejectedFull++
			return err
		}
	}
	e := &txEntry{tx: Tx{Sender: sender, Nonce: nonce, Fee: fee, Serial: p.nextSerial}}
	p.nextSerial++
	e.ref = h.mqh.EnqueuePriorityRef(feePriority(fee), e.tx.Serial)
	p.queued++
	p.byID[TxID{sender, nonce}] = e
	p.bySerial[e.tx.Serial] = e
	p.evict.Push(heap.Item{Priority: fee, Value: e.tx.Serial})
	ss.nextAdmit++
	p.st.Admitted++
	return nil
}

// replaceLocked applies replace-by-fee to the resident (sender, nonce).
func (p *Pool) replaceLocked(h *Handle, sender, nonce, fee uint64) error {
	e := p.byID[TxID{sender, nonce}]
	if !p.bumped(e.tx.Fee, fee) {
		p.st.RejectedFee++
		return ErrFeeTooLow
	}
	if e.state == stateQueued {
		// The old version must never surface from a pop: remove it
		// physically (from the prefetch buffer if the pop handle already
		// staged it, else by tombstone) and insert the replacement as a
		// fresh element with a fresh serial.
		p.removePhysicalLocked(e)
		delete(p.bySerial, e.tx.Serial)
		e.tx.Serial = p.nextSerial
		p.nextSerial++
		e.ref = h.mqh.EnqueuePriorityRef(feePriority(fee), e.tx.Serial)
		p.bySerial[e.tx.Serial] = e
		p.queued++ // removePhysicalLocked decremented
	}
	// Parked/ready versions were already popped by fee order; their
	// delivery slot is fixed by nonce now, so the fee just updates in
	// place (the evict index entry for the old fee goes stale).
	e.tx.Fee = fee
	p.evict.Push(heap.Item{Priority: fee, Value: e.tx.Serial})
	p.st.Replaced++
	p.st.Admitted++
	return nil
}

// removePhysicalLocked removes a queued entry from wherever it physically
// lives: the pop handle's prefetch buffer, or the shared structure by
// tombstone. The ElemRef residency contract is exactly why both are probed
// here and nowhere else.
func (p *Pool) removePhysicalLocked(e *txEntry) {
	if !p.popH.DropPrefetched(e.tx.Serial) {
		if !p.popH.Remove(e.ref) {
			panic(fmt.Sprintf("mempool: resident tx %+v not removable", e.tx))
		}
	}
	p.queued--
}

// evictForLocked frees one admission slot for a newcomer paying fee: the
// lowest-fee resident is the victim, and contiguity evicts the victim's
// whole tail [victim.Nonce, nextAdmit) of its sender. The newcomer must
// outbid the victim, and must not be the victim's own sender (evicting
// one's own tail to append a higher nonce would break contiguity).
func (p *Pool) evictForLocked(sender, fee uint64) error {
	victim := p.minFeeResidentLocked()
	if victim == nil {
		return ErrPoolFull // capacity 0 edge: nothing evictable
	}
	if victim.tx.Sender == sender || !p.bumped(victim.tx.Fee, fee) {
		// The newcomer must clear the same bump bar over the victim as a
		// replacement would — otherwise eviction churn is free and two
		// equal-fee streams could thrash each other out of the pool.
		return ErrPoolFull
	}
	ss := p.senders[victim.tx.Sender]
	for n := ss.nextAdmit; n > victim.tx.Nonce; n-- {
		p.evictOneLocked(TxID{victim.tx.Sender, n - 1})
	}
	ss.nextAdmit = victim.tx.Nonce
	return nil
}

// minFeeResidentLocked pops the lazy eviction index down to the current
// lowest-fee resident, discarding stale entries (gone serials, outdated
// fees) as it goes.
func (p *Pool) minFeeResidentLocked() *txEntry {
	for {
		it, ok := p.evict.Peek()
		if !ok {
			return nil
		}
		e := p.bySerial[it.Value]
		if e == nil || e.tx.Fee != it.Priority {
			p.evict.Pop()
			continue
		}
		return e
	}
}

// evictOneLocked removes one resident by id, wherever it lives.
func (p *Pool) evictOneLocked(id TxID) {
	e := p.byID[id]
	switch e.state {
	case stateQueued:
		p.removePhysicalLocked(e)
	case stateParked:
		p.parked--
	case stateReady:
		for i, re := range p.ready {
			if re == e {
				p.ready = append(p.ready[:i], p.ready[i+1:]...)
				break
			}
		}
	}
	delete(p.byID, id)
	delete(p.bySerial, e.tx.Serial)
	p.st.Evicted++
	p.st.EvictedFee += e.tx.Fee
}

// Pop delivers the next transaction: the highest-fee resident the relaxed
// structure surfaces whose sender chain allows it (nonce order per sender
// is absolute — an out-of-order pop parks until its predecessor delivers).
// ok is false only when the pool is empty.
func (p *Pool) Pop() (Tx, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.popLocked()
}

func (p *Pool) popLocked() (Tx, bool) {
	for {
		if len(p.ready) > 0 {
			e := p.ready[0]
			p.ready = p.ready[1:]
			return p.deliverLocked(e), true
		}
		it, ok := p.popH.Dequeue()
		if !ok {
			if p.parked > 0 {
				// Unreachable by construction: a parked nonce's predecessor
				// is resident and not parked/ready, hence queued, hence
				// obtainable above.
				panic("mempool: parked transactions with empty backing structure")
			}
			return Tx{}, false
		}
		e := p.bySerial[it.Value]
		if e == nil {
			// Every removal is physical (tombstone or prefetch drop), so a
			// popped serial always resolves.
			panic(fmt.Sprintf("mempool: popped unknown serial %d", it.Value))
		}
		p.queued--
		ss := p.senders[e.tx.Sender]
		if e.tx.Nonce == ss.nextDeliver {
			return p.deliverLocked(e), true
		}
		e.state = stateParked
		p.parked++
	}
}

// deliverLocked finalizes delivery of e and promotes its parked successor,
// if any, into the ready queue.
func (p *Pool) deliverLocked(e *txEntry) Tx {
	ss := p.senders[e.tx.Sender]
	ss.nextDeliver = e.tx.Nonce + 1
	delete(p.byID, TxID{e.tx.Sender, e.tx.Nonce})
	delete(p.bySerial, e.tx.Serial)
	p.st.Popped++
	p.st.Revenue += e.tx.Fee
	if succ := p.byID[TxID{e.tx.Sender, ss.nextDeliver}]; succ != nil && succ.state == stateParked {
		succ.state = stateReady
		p.parked--
		p.ready = append(p.ready, succ)
	}
	return e.tx
}

// NextAdmit returns the sender's next admission nonce.
func (p *Pool) NextAdmit(sender uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ss := p.senders[sender]; ss != nil {
		return ss.nextAdmit
	}
	return 0
}

// ResidentRange returns the sender's resident nonce window [lo, hi);
// lo == hi means no resident transactions.
func (p *Pool) ResidentRange(sender uint64) (lo, hi uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ss := p.senders[sender]; ss != nil {
		return ss.nextDeliver, ss.nextAdmit
	}
	return 0, 0
}

// Fee returns the resident fee of (sender, nonce), if resident.
func (p *Pool) Fee(sender, nonce uint64) (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.byID[TxID{sender, nonce}]; e != nil {
		return e.tx.Fee, true
	}
	return 0, false
}

// Len returns the number of resident transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.byID)
}

// Stats snapshots the ledger.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.st
	st.Resident = uint64(len(p.byID))
	st.Parked = uint64(p.parked)
	st.Ready = uint64(len(p.ready))
	return st
}

// MQStats exposes the underlying MultiQueue's event counters (tombstone
// invalidations/reclamations among them).
func (p *Pool) MQStats() core.MQStats { return p.mq.Stats() }

// CheckConservation audits the pool against its ledger and its physical
// placement: Admitted = Popped + Evicted + Replaced + Resident, the three
// residency states partition the resident set, the relaxed structure plus
// the pop handle's prefetch hold exactly the queued transactions, and no
// tombstone leaked (armed − reclaimed tombstones all correspond to... none:
// every tombstone this pool arms is still awaiting physical compaction
// inside the structure, which mq.Len already excludes). Requires
// quiescence (no concurrent pool calls).
func (p *Pool) CheckConservation() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.st
	resident := uint64(len(p.byID))
	if st.Admitted != st.Popped+st.Evicted+st.Replaced+resident {
		return fmt.Errorf("mempool: ledger violated: admitted %d != popped %d + evicted %d + replaced %d + resident %d",
			st.Admitted, st.Popped, st.Evicted, st.Replaced, resident)
	}
	if len(p.byID) != len(p.bySerial) {
		return fmt.Errorf("mempool: id/serial index mismatch: %d vs %d", len(p.byID), len(p.bySerial))
	}
	if p.queued+p.parked+len(p.ready) != len(p.byID) {
		return fmt.Errorf("mempool: states leak: queued %d + parked %d + ready %d != resident %d",
			p.queued, p.parked, len(p.ready), len(p.byID))
	}
	if got := p.mq.Len() + p.popH.Prefetched(); got != p.queued {
		return fmt.Errorf("mempool: physical placement violated: mq.Len %d + prefetched %d != queued %d",
			p.mq.Len(), p.popH.Prefetched(), p.queued)
	}
	for id, e := range p.byID {
		ss := p.senders[id.Sender]
		if ss == nil || id.Nonce < ss.nextDeliver || id.Nonce >= ss.nextAdmit {
			return fmt.Errorf("mempool: resident %+v outside its sender window", id)
		}
		if p.bySerial[e.tx.Serial] != e {
			return fmt.Errorf("mempool: serial index stale for %+v", id)
		}
	}
	return nil
}

// Compile-time pin: MaxFee's order-exact truncation argument assumes the
// top word carries 48 priority bits; this fails to build if that changes.
var _ = [1]struct{}{}[cpq.TopPrioBits-48]
