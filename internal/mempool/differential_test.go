package mempool

import (
	"flag"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// diffops scales the differential/concurrent soaks so CI's -race leg can
// run them reduced (the CI mempool job passes -diffops 4000).
var diffops = flag.Int("diffops", 20000, "operations per differential mempool trace")

// deliveryAuditor checks the two pop-stream invariants every pool must
// uphold regardless of relaxation: per-sender nonces deliver in exactly
// ascending order with no slot delivered twice, and the delivered fee for a
// slot is the last accepted fee (a replaced version never surfaces).
type deliveryAuditor struct {
	next map[uint64]uint64 // sender -> next expected nonce
	fees map[TxID]uint64   // last accepted fee per slot
}

func newDeliveryAuditor() *deliveryAuditor {
	return &deliveryAuditor{next: map[uint64]uint64{}, fees: map[TxID]uint64{}}
}

// accept records a successful admission/replacement of (sender,nonce,fee).
func (a *deliveryAuditor) accept(ap Applied) {
	if ap.OK && ap.Kind != OpPop {
		a.fees[TxID{ap.Sender, ap.Nonce}] = ap.Fee
	}
}

func (a *deliveryAuditor) delivered(t *testing.T, label string, tx Tx) {
	t.Helper()
	id := TxID{tx.Sender, tx.Nonce}
	if want := a.next[tx.Sender]; tx.Nonce != want {
		t.Fatalf("%s: sender %d delivered nonce %d, want %d (nonce monotonicity)", label, tx.Sender, tx.Nonce, want)
	}
	a.next[tx.Sender] = tx.Nonce + 1
	if fee, ok := a.fees[id]; ok && fee != tx.Fee {
		t.Fatalf("%s: slot %+v delivered fee %d, want last accepted %d (replaced version surfaced)", label, id, tx.Fee, fee)
	}
	delete(a.fees, id)
}

// replayAudited replays ops against p with full delivery auditing. A slot
// evicted by a cascade either never delivers (its stale fee expectation is
// never consulted) or is re-admitted first (the expectation is overwritten),
// so the auditor needs no eviction hook. Returns the number of delivered
// transactions and the delivered fee sum.
func replayAudited(t *testing.T, label string, p PoolAPI, ops []Op) (uint64, uint64) {
	t.Helper()
	aud := newDeliveryAuditor()
	var popped, revenue uint64
	for _, op := range ops {
		ap := Apply(p, op, 110, 100)
		aud.accept(ap)
		if ap.Kind == OpPop && ap.OK {
			aud.delivered(t, label, ap.Tx)
			popped++
			revenue += ap.Tx.Fee
		}
	}
	// Drain completely; every remaining delivery stays audited.
	for {
		tx, ok := p.Pop()
		if !ok {
			break
		}
		aud.delivered(t, label, tx)
		popped++
		revenue += tx.Fee
	}
	return popped, revenue
}

// TestDifferentialRelaxedVsSeq replays identical seeded intent traces
// against the relaxed pool and the exact sequential reference, across
// capacity regimes, asserting on both: exact conservation,
// nonce monotonicity, replaced-never-popped. In the divergence-free regime
// (no bumps, no capacity) the two pools must deliver the identical
// transaction multiset with identical total revenue.
func TestDifferentialRelaxedVsSeq(t *testing.T) {
	type regime struct {
		name     string
		capacity int
		bumpFrac float64
	}
	regimes := []regime{
		{"pure", 0, -1},      // no bumps, no capacity: exact equality holds
		{"rbf", 0, 0.15},     // replacements, unbounded
		{"evict", 600, 0.1},  // capacity pressure: cascades fire
		{"churn", 200, 0.25}, // heavy churn, small pool
	}
	for _, rg := range regimes {
		t.Run("binary/"+rg.name, func(t *testing.T) {
			bump := rg.bumpFrac
			if bump < 0 {
				bump = 0
			}
			ops := GenOps(WorkloadConfig{
				Ops: *diffops, Senders: 64, PopFrac: 0.35,
				BumpFrac: bump, Seed: 77 + uint64(len(rg.name)),
			})
			if rg.bumpFrac < 0 {
				// Strip bump ops entirely for the equality regime.
				kept := ops[:0]
				for _, op := range ops {
					if op.Kind != OpBump {
						kept = append(kept, op)
					}
				}
				ops = kept
			}
			cfg := Config{
				Queue: core.MultiQueueConfig{
					Queues: 16, Choices: 2, Stickiness: 8, Batch: 8,
					Capacity: 4096,
				},
				Capacity: rg.capacity,
				Seed:     9,
			}
			relaxed := New(cfg)
			h := relaxed.NewHandle(21)
			seq := NewSeq(cfg)
			rp, rrev := replayAudited(t, "relaxed", h, ops)
			sp, srev := replayAudited(t, "seq", seq, ops)

			if err := relaxed.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if err := seq.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if relaxed.Len() != 0 || seq.Len() != 0 {
				t.Fatalf("drain incomplete: relaxed %d, seq %d resident", relaxed.Len(), seq.Len())
			}
			if rg.name == "pure" {
				// Same admissions, full drain: identical delivery ledger.
				if rp != sp || rrev != srev {
					t.Fatalf("pure regime diverged: relaxed %d pops / %d revenue, seq %d / %d", rp, rrev, sp, srev)
				}
				rst, sst := relaxed.Stats(), seq.Stats()
				if rst.Admitted != sst.Admitted || rst.Popped != sst.Popped {
					t.Fatalf("pure regime ledgers diverged: %+v vs %+v", rst, sst)
				}
			}
			mqs := relaxed.MQStats()
			if mqs.Invalidations != mqs.Reclaimed {
				t.Fatalf("tombstones leaked after full drain: armed %d, reclaimed %d", mqs.Invalidations, mqs.Reclaimed)
			}
		})
	}
}

// TestConcurrentPoolConservation is the -race soak: workers admit, bump and
// pop concurrently through their own handles against one relaxed pool; at
// quiescence the pool must conserve exactly, and the interleaved delivery
// stream must still be nonce-monotone per sender (checked post-hoc from the
// collected pops — fee/slot expectations are not asserted here because
// cross-worker races make the last-accepted-fee relation unobservable).
func TestConcurrentPoolConservation(t *testing.T) {
	const workers = 4
	p := New(Config{
		Queue: core.MultiQueueConfig{
			Queues: 16, Choices: 2, Stickiness: 8, Batch: 8, Seed: 13, Capacity: 4096,
		},
		Capacity: 2000,
		Seed:     17,
	})
	opsPer := *diffops / workers
	var wg sync.WaitGroup
	delivered := make([][]Tx, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := p.NewHandle(uint64(w)*31 + 7)
			defer h.Close()
			r := rng.NewXoshiro256(uint64(w)*101 + 3)
			for i := 0; i < opsPer; i++ {
				switch {
				case r.Bernoulli(0.4):
					if tx, ok := p.Pop(); ok {
						delivered[w] = append(delivered[w], tx)
					}
				case r.Bernoulli(0.1):
					// Bump a random resident of a random sender.
					s := r.Uint64n(32)
					lo, hi := p.ResidentRange(s)
					if lo == hi {
						continue
					}
					nonce := lo + r.Uint64n(hi-lo)
					if old, ok := p.Fee(s, nonce); ok {
						h.Admit(s, nonce, BumpFee(old, 110, 100)+r.Uint64n(500))
					}
				default:
					s := r.Uint64n(32)
					h.Admit(s, p.NextAdmit(s), 1+uint64(r.Exp()*1000))
				}
			}
		}(w)
	}
	wg.Wait()
	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// Drain and stitch the global delivery order per sender: each worker's
	// own stream is ordered by its append order; across workers we can only
	// assert the multiset forms exactly [0, finalNextDeliver) per sender.
	var tail []Tx
	for {
		tx, ok := p.Pop()
		if !ok {
			break
		}
		tail = append(tail, tx)
	}
	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	seen := map[TxID]bool{}
	maxNonce := map[uint64]uint64{}
	count := map[uint64]uint64{}
	for _, stream := range append(delivered, tail) {
		for _, tx := range stream {
			id := TxID{tx.Sender, tx.Nonce}
			if seen[id] {
				t.Fatalf("slot %+v delivered twice", id)
			}
			seen[id] = true
			if tx.Nonce+1 > maxNonce[tx.Sender] {
				maxNonce[tx.Sender] = tx.Nonce + 1
			}
			count[tx.Sender]++
		}
	}
	for s, n := range count {
		if maxNonce[s] != n {
			t.Fatalf("sender %d delivered %d slots but max nonce %d — a gap was delivered out of order", s, n, maxNonce[s])
		}
	}
	st := p.Stats()
	if st.Resident != 0 {
		t.Fatalf("resident %d after drain", st.Resident)
	}
	if got := uint64(len(seen)); got != st.Popped {
		t.Fatalf("collected %d deliveries, ledger says %d", got, st.Popped)
	}
	mqs := p.MQStats()
	if mqs.Invalidations != mqs.Reclaimed {
		t.Fatalf("tombstones leaked: armed %d, reclaimed %d", mqs.Invalidations, mqs.Reclaimed)
	}
}
