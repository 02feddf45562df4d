package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/cpq"
	"repro/internal/fail"
	"repro/internal/heap"
	"repro/internal/pad"
	"repro/internal/rng"
	"repro/internal/trace"
)

// MultiQueue is the relaxed queue of Algorithm 2: m linearizable priority
// queues; Enqueue stamps the element with the current clock value and adds
// it to a random queue; Dequeue reads the heads of d random queues (the
// paper's default is d = 2) and deletes from the one with the smallest
// (oldest / highest-priority) head.
//
// Used with clock priorities it is a relaxed FIFO queue whose dequeues
// return one of the O(m·log m) oldest elements w.h.p.; used with explicit
// priorities (EnqueuePriority) it is the MultiQueue relaxed priority queue
// of Rihani, Sanders and Dementiev, with the buffer assumption Section 7
// states: analysis guarantees apply while no insertion carries a higher
// priority than an element already removed.
type MultiQueue struct {
	qs    []cpq.Queue // len Topology.MaxM, one block each; slots >= live m are sealed
	clk   clock.Clock
	blk   blockClock // non-nil when clk supports block reservation
	topo  Topology
	d     int
	stick int
	batch int

	// Elastic topology state (DESIGN.md §11). epoch publishes the pair
	// (resize epoch, live m) in one padded atomic word — the only load a
	// handle needs to notice a flip, and the linearization point of every
	// resize. resizeMu serializes Resize and SnapshotElements against each
	// other; the enqueue/dequeue paths never take it and tolerate a racing
	// flip through sealed-queue refusals.
	epoch    pad.EpochWord
	resizeMu sync.Mutex
	resizes  atomic.Uint64
}

// blockClock is the optional fast path a clock can offer batched enqueuers:
// reserve n consecutive stamps with one shared atomic operation.
type blockClock interface {
	Block(n int) uint64
}

// MultiQueueConfig configures NewMultiQueue. The zero value of optional
// fields selects defaults.
type MultiQueueConfig struct {
	// Queues is m, the number of internal priority queues.
	//
	// Deprecated: set Topology.InitialM instead. Queues is kept as the
	// legacy fixed-m form — when Topology is the zero value it behaves
	// exactly as before (MinM = MaxM = Queues, no resizing).
	Queues int
	// Topology is the redesigned capacity surface: initial, minimum and
	// maximum live shard counts (DESIGN.md §11). A zero InitialM adopts
	// Queues.
	Topology Topology
	// Clock supplies enqueue timestamps (default: a fresh Tick clock, which
	// gives strictly unique, consistently ordered stamps).
	Clock clock.Clock
	// Seed has no effect: its only consumer was the level generator of the
	// skip-list store the queues no longer offer. The field stays until the
	// benchmark, which sets it, stops doing so.
	Seed uint64
	// Choices is d, the number of random queue heads a dequeue compares
	// before deleting from the smallest. 0 selects the paper's d = 2;
	// d = 1 is the divergent single-choice baseline (ablation A1); d > 2
	// tightens rank quality at the cost of extra ReadMin traffic. Negative
	// values panic. Enqueues always use one uniform choice, as in
	// Algorithm 2.
	Choices int
	// Stickiness is the operation-stickiness window s: a handle re-uses its
	// randomly chosen queue (for inserts) and queue pair (for removes) for
	// up to s consecutive operations before re-rolling. The window is
	// charged per element and a choice is dropped once a full batch no
	// longer fits, so a random choice serves max(s, Batch) consecutive
	// elements: batching already moves Batch elements per choice, and
	// stickiness only extends re-use beyond a single batch when s > Batch.
	// 0 or 1 means fresh random choices every operation (with Batch <= 1
	// this is Algorithm 2 exactly). Larger s amortises the RNG draws and
	// keeps a handle on warm cache lines at the cost of extra rank
	// relaxation (re-measure with cmd/quality -queue).
	Stickiness int
	// Batch is the batching factor k: handles buffer up to k enqueues and
	// flush them with one cpq.AddBatch, and prefetch up to k elements per
	// dequeue refill with one cpq.DeleteMinUpTo — one lock acquisition and
	// one cached-top publish per k elements instead of per element. 0 or 1
	// means per-operation locking. Buffered enqueues are invisible to other
	// handles until the batch flushes (call MQHandle.Flush at quiescence);
	// prefetched elements are already dequeued from the shared structure.
	Batch int
}

// NewMultiQueue returns a MultiQueue with the given configuration.
func NewMultiQueue(cfg MultiQueueConfig) *MultiQueue {
	topo := cfg.Topology.normalize(cfg.Queues, "MultiQueueConfig")
	if cfg.Clock == nil {
		cfg.Clock = clock.NewTick()
	}
	if cfg.Choices < 0 {
		panic("core: MultiQueueConfig.Choices must be >= 0")
	}
	if cfg.Choices == 0 {
		cfg.Choices = 2
	}
	if cfg.Stickiness < 1 {
		cfg.Stickiness = 1
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	mq := &MultiQueue{
		qs:    cpq.NewShards(topo.MaxM),
		clk:   cfg.Clock,
		topo:  topo,
		d:     cfg.Choices,
		stick: cfg.Stickiness,
		batch: cfg.Batch,
	}
	if cfg.Batch > 1 {
		mq.blk, _ = cfg.Clock.(blockClock)
	}
	for i := topo.InitialM; i < topo.MaxM; i++ {
		// Parked tail slot: allocated so a grow never republishes the
		// shard slice, sealed so nothing lands in it until then.
		mq.qs[i].Seal()
	}
	mq.epoch.Init(0, topo.InitialM)
	return mq
}

// Choices returns the configured number of dequeue choices d (>= 1).
func (q *MultiQueue) Choices() int { return q.d }

// Stickiness returns the configured stickiness window s (>= 1).
func (q *MultiQueue) Stickiness() int { return q.stick }

// Batch returns the configured batching factor k (>= 1).
func (q *MultiQueue) Batch() int { return q.batch }

// M returns the live number of internal queues — one atomic load of the
// epoch word, current as of that instant (a concurrent Resize may move it).
func (q *MultiQueue) M() int {
	_, m := pad.UnpackEpoch(q.epoch.Load())
	return m
}

// Topology returns the normalized capacity surface the queue was built with.
func (q *MultiQueue) Topology() Topology { return q.topo }

// Epoch returns the resize epoch counter (0 until the first Resize).
func (q *MultiQueue) Epoch() uint64 {
	e, _ := pad.UnpackEpoch(q.epoch.Load())
	return uint64(e)
}

// Len returns the total number of stored elements (exact at quiescence).
// In batched mode, elements a handle still buffers (MQHandle.Buffered) are
// not counted until that handle flushes, and prefetched elements
// (MQHandle.Prefetched) are already excluded — flush all handles before a
// Len/Sizes audit. The scan covers the full MaxM array, so elements mid-way
// through a shrink's drain-and-donate hop are never double- or un-counted at
// quiescence.
func (q *MultiQueue) Len() int {
	n := 0
	for i := range q.qs {
		n += q.qs[i].Len()
	}
	return n
}

// MQStats aggregates the per-queue event counters of cpq.QueueStats across
// all m internal queues — the publication-elision and lock-contention
// signals dlzd's /metrics exports per tenant. Counters are monotonic; the
// snapshot is racy under concurrency, which monitoring tolerates.
type MQStats struct {
	// Elisions counts critical sections that skipped the top-word publish
	// entirely (covered inserts, deletes on published-empty queues).
	Elisions uint64
	// Publications counts critical sections that republished a top word.
	Publications uint64
	// LockContended counts blocking lock acquisitions that entered the
	// spin-backoff slow path.
	LockContended uint64
	// CurrentM is the live shard count at snapshot time, Epoch the resize
	// epoch counter, and Resizes the number of completed resize epochs —
	// the elasticity signals dlzd's /metrics exports.
	CurrentM int
	Epoch    uint64
	Resizes  uint64
}

// Stats sums the internal queues' event counters without taking any locks.
// Counters cover the full MaxM array, so work done in shards a shrink later
// retired stays visible.
func (q *MultiQueue) Stats() MQStats {
	var s MQStats
	for i := range q.qs {
		qs := q.qs[i].Stats()
		s.Elisions += qs.Elisions
		s.Publications += qs.Publications
		s.LockContended += qs.LockContended
	}
	e, m := pad.UnpackEpoch(q.epoch.Load())
	s.CurrentM = m
	s.Epoch = uint64(e)
	s.Resizes = q.resizes.Load()
	return s
}

// Sizes copies the per-queue element counts into dst (len must equal M) —
// the queue counterpart of MultiCounter.Snapshot, used to observe how evenly
// the random-insert rule spreads elements. Exact at quiescence; call at
// quiescence only, since a racing Resize changes M.
func (q *MultiQueue) Sizes(dst []int) {
	if len(dst) != q.M() {
		panic("core: Sizes dst length mismatch")
	}
	for i := range dst {
		dst[i] = q.qs[i].Len()
	}
}

// Resize moves the live shard count to m (clamped to [MinM, MaxM]) and
// returns the count actually in effect. Growing unseals parked tail slots
// and then publishes the new epoch word — handles re-seed their samplers on
// the first operation that observes the flip. Shrinking publishes the new
// (smaller) word first — the linearization point, after which no current
// handle targets a victim — then seals and drains each victim shard
// [m, old m) through the zero-alloc bulk path and donates the drained
// elements round-robin to the survivors.
// Concurrent enqueues that lose the race to a sealing victim are refused by
// the seal and retried by the handle against the new topology; concurrent
// dequeues at worst observe a victim as empty, which relaxed semantics
// already tolerate. Element conservation is exact: every element admitted
// before the resize is in a survivor (or a caller's prefetch buffer)
// afterwards.
func (q *MultiQueue) Resize(m int) int {
	q.resizeMu.Lock()
	defer q.resizeMu.Unlock()
	m = q.topo.clamp(m)
	epoch, cur := pad.UnpackEpoch(q.epoch.Load())
	if m == cur {
		return cur
	}
	if m > cur {
		// Grow: open the new slots before any handle can target them.
		for i := cur; i < m; i++ {
			q.qs[i].Unseal()
		}
		q.epoch.Store(epoch+1, m)
		q.resizes.Add(1)
		return m
	}
	// Shrink. Publish first so new operations route within [0, m); then
	// retire the victims. SealAndDrain atomically seals each victim and
	// empties it under one lock hold, so an insert that raced the publish
	// either landed before the drain (and is donated) or is refused.
	q.epoch.Store(epoch+1, m)
	q.resizes.Add(1)
	var drained []heap.Item
	for v := m; v < cur; v++ {
		drained = q.qs[v].SealAndDrain(drained)
	}
	if fail.Enabled {
		// Between drain and donation: the displaced elements exist only in
		// this frame. A delay here widens the not-yet-donated window for the
		// chaos suite; panics are not armed at this site (they would lose
		// the frame).
		_ = fail.Inject(fail.SiteCoreResizeDrain)
	}
	q.donateLocked(drained, m)
	return m
}

// donateLocked hands drained elements to the live shards [0, m) in
// round-robin chunks of max(Batch, 16); caller holds resizeMu. The shards are
// never sealed here, so every AddBatch is accepted.
func (q *MultiQueue) donateLocked(drained []heap.Item, m int) {
	chunk := max(q.batch, 16)
	target := 0
	for off := 0; off < len(drained); off += chunk {
		end := min(off+chunk, len(drained))
		q.qs[target].AddBatch(drained[off:end])
		target = (target + 1) % m
	}
}

// SnapshotElements captures the structure's full contents into dst and
// puts every element straight back, returning dst extended with the capture
// in shard-drain order — the point-in-time read the durability snapshotter
// needs. It holds the resize lock for the whole capture, so no resize can
// interleave, and drains each live shard without sealing
// it (cpq.Drain): a shard is never in a refusing state, so a racing insert
// fallback cannot lose elements. The capture is only a consistent cut if
// the caller has quiesced concurrent mutators (dlzd's snapshotter holds
// every tenant's operation gate and flushes every lease first). Elements
// re-enter round-robin across the live shards.
func (q *MultiQueue) SnapshotElements(dst []heap.Item) []heap.Item {
	q.resizeMu.Lock()
	defer q.resizeMu.Unlock()
	_, m := pad.UnpackEpoch(q.epoch.Load())
	start := len(dst)
	for i := 0; i < m; i++ {
		dst = q.qs[i].Drain(dst)
	}
	q.donateLocked(dst[start:], m)
	return dst
}

// MQHandle binds a MultiQueue to one goroutine's private generator and, in
// sticky/batched mode, the handle-local fast-path state: the sticky samplers
// holding the current queue choices, the insert buffer awaiting its batch
// flush, and the prefetched dequeue run. A handle must be used by one
// goroutine at a time.
//
// The struct is padded to three whole cache lines; a field that changes its
// size must re-pad it, or handles minted back to back share a line
// (TestHandlesOwnTheirCacheLines).
type MQHandle struct {
	q *MultiQueue
	r rng.Xoshiro256 // by value: no separate allocation to share a line

	// Cached copy of the queue's epoch word and the live m it encodes.
	// syncEpoch compares one atomic load against epochWord at operation
	// entry; on a mismatch the handle re-seeds both samplers for the new m
	// before proceeding. Steady state this
	// is one load and one predictable branch.
	epochWord uint64
	m         int

	// Sticky sampling state: one uniform choice for inserts (Algorithm 2's
	// enqueue), d choices for removals.
	enq Sampler
	deq Sampler

	// Batching state: pending inserts and the prefetched dequeue run. Both
	// slices are carved from one fixed backing array sized at NewHandle with
	// full-slice expressions capping them at Batch, so the steady-state hot
	// path never grows either and performs zero allocations per operation
	// (cpq.AddBatch reads at most len(inBuf) <= Batch items;
	// cpq.DeleteMinUpTo appends at most Batch items into cap-Batch outBuf).
	// BenchmarkMultiQueueHotPathAllocs and TestMQHandleHotPathZeroAlloc
	// enforce the invariant.
	inBuf  []heap.Item
	outBuf []heap.Item
	outPos int

	// Block-reserved clock stamps (batched mode over a Tick clock).
	stampNext uint64
	stampLeft int

	// closed marks a handle retired by Close: its buffers are drained and
	// every further operation is a programming error.
	closed bool

	_ [3*pad.CacheLine - 296]byte
}

// NewHandle returns a per-goroutine handle seeded with seed, inheriting the
// MultiQueue's choice count, stickiness window and batching factor. Both
// samplers draw uniformly: one choice per insert (Algorithm 2's enqueue), d
// per removal.
func (q *MultiQueue) NewHandle(seed uint64) *MQHandle {
	w := q.epoch.Load()
	_, m := pad.UnpackEpoch(w)
	h := &MQHandle{
		q:         q,
		r:         *rng.NewXoshiro256(seed),
		epochWord: w,
		m:         m,
		enq:       NewSampler(m, 1, q.stick),
		deq:       NewSampler(m, q.d, q.stick),
	}
	if q.batch > 1 {
		backing := make([]heap.Item, 2*q.batch)
		h.inBuf = backing[0:0:q.batch]
		h.outBuf = backing[q.batch : q.batch : 2*q.batch]
	}
	return h
}

// Queue returns the underlying MultiQueue.
func (h *MQHandle) Queue() *MultiQueue { return h.q }

// Buffered returns the number of enqueued elements held in this handle's
// insert buffer, not yet visible to other handles. Zero unless Batch > 1.
func (h *MQHandle) Buffered() int { return len(h.inBuf) }

// Rerolls returns the number of empty/contended dequeue outcomes that
// requested fresh sticky candidates (Sampler.Reroll) over this handle's
// lifetime — the sampler-pressure signal dlzd's /metrics aggregates.
func (h *MQHandle) Rerolls() uint64 { return h.deq.Rerolls() }

// Closed reports whether Close has retired this handle.
func (h *MQHandle) Closed() bool { return h.closed }

// Close retires the handle: buffered inserts are flushed to the shared
// structure, unconsumed prefetched elements are returned to it (they were
// already removed by a DeleteMinUpTo refill and would otherwise be lost
// with the handle — the abandoned-handle bug this contract fixes), and the
// handle is invalidated. After Close, Buffered and Prefetched are zero and
// any further operation panics; closing an already-closed handle is a no-op.
// Owners that cannot guarantee a final Flush (connection handlers, pools,
// lease managers like dlzd) must Close handles they abandon, or the
// structure silently loses the buffered elements.
func (h *MQHandle) Close() {
	if h.closed {
		return
	}
	h.Flush()
	if rest := h.outBuf[h.outPos:]; len(rest) > 0 {
		// Return the prefetch remainder through the same uniform sticky
		// insert rule as an enqueue batch: these elements are logically
		// still queued, they were only staged for this handle's consumption.
		h.addBatchRetrying(rest)
	}
	h.outBuf, h.outPos = h.outBuf[:0], 0
	h.closed = true
}

// checkOpen panics when the handle has been closed; every mutating
// entry point calls it (one predictable branch on the hot path).
func (h *MQHandle) checkOpen() {
	if h.closed {
		panic("core: operation on closed MQHandle")
	}
}

// syncEpoch folds a published resize into the handle: one atomic load
// against the cached word, and on a flip both samplers re-seed in place for
// the new m (no allocation).
func (h *MQHandle) syncEpoch() {
	if w := h.q.epoch.Load(); w != h.epochWord {
		h.reseed(w)
	}
}

func (h *MQHandle) reseed(w uint64) {
	h.epochWord = w
	_, m := pad.UnpackEpoch(w)
	h.m = m
	h.enq.Reseed(m)
	h.deq.Reseed(m)
}

// sealedRetryLimit bounds insert retries against sealing shards before the
// deterministic fallback to queue 0 (never sealed: MinM >= 1 and shrink
// victims are always the top of the range). Each refusal implies a resize
// published since the handle's last sync — Go atomics are sequentially
// consistent and the seal writes behind the victim's lock after the epoch
// store — so in practice one re-sync resolves it; the bound only matters
// under a pathological resize storm.
const sealedRetryLimit = 8

// refusedSealed re-syncs the handle after a sealed-shard refusal, or
// re-rolls the insert choice if the epoch word has not moved yet.
func (h *MQHandle) refusedSealed() {
	if w := h.q.epoch.Load(); w != h.epochWord {
		h.reseed(w)
		return
	}
	h.enq.Reroll()
}

// addRetrying inserts one element through the sticky uniform rule, retrying
// past sealed-shard refusals.
func (h *MQHandle) addRetrying(priority, value uint64) {
	for attempt := 0; attempt < sealedRetryLimit; attempt++ {
		if h.q.qs[h.enqTarget(1)].Add(priority, value) {
			return
		}
		h.refusedSealed()
	}
	h.q.qs[0].Add(priority, value)
}

// addBatchRetrying publishes one insert batch, retrying past sealed-shard
// refusals with the same fallback.
func (h *MQHandle) addBatchRetrying(items []heap.Item) {
	for attempt := 0; attempt < sealedRetryLimit; attempt++ {
		if h.q.qs[h.enqTarget(len(items))].AddBatch(items) {
			return
		}
		h.refusedSealed()
	}
	h.q.qs[0].AddBatch(items)
}

// Prefetched returns the number of already-dequeued elements this handle
// holds and will return from upcoming Dequeue calls. Zero unless Batch > 1.
func (h *MQHandle) Prefetched() int { return len(h.outBuf) - h.outPos }

// Flush publishes any buffered inserts to the shared structure with one
// batched add. Call at quiescence (before Len/Sizes audits or a drain by
// another handle); a handle with an empty buffer flushes for free.
func (h *MQHandle) Flush() {
	if len(h.inBuf) == 0 {
		return
	}
	if fail.Enabled {
		// Fires only with a non-empty buffer, before any element publishes:
		// a panic here interrupts the batch flush with inBuf fully intact,
		// so a recovering owner can retry Flush (or Close) without losing a
		// buffered element. The error outcome is ignored — Flush has no
		// refusal path.
		_ = fail.Inject(fail.SiteCoreFlush)
	}
	h.syncEpoch()
	h.addBatchRetrying(h.inBuf)
	h.inBuf = h.inBuf[:0]
}

// ReturnPrefetched hands the handle's unconsumed prefetched elements back
// to the shared structure without retiring the handle — the quiesce step a
// durability snapshot runs on every live lease so the capture sees those
// elements (they were physically removed by a DeleteMinUpTo refill but are
// logically still queued). The handle stays open; its next Dequeue simply
// refills. Pair with Flush for a full quiesce of both buffers.
func (h *MQHandle) ReturnPrefetched() {
	h.checkOpen()
	if rest := h.outBuf[h.outPos:]; len(rest) > 0 {
		h.syncEpoch()
		h.addBatchRetrying(rest)
	}
	h.outBuf, h.outPos = h.outBuf[:0], 0
}

// enqTarget picks the insert queue through the sticky uniform sampler and
// charges n logical operations against the stickiness window. A choice
// serves at most max(stick, batch) elements — exactly stick when batch
// divides into it, one whole batch when batch exceeds the window (the
// sampler never splits a batch across choices).
func (h *MQHandle) enqTarget(n int) int {
	i := h.enq.Candidates(&h.r, n)[0]
	h.enq.Charge(n)
	return i
}

// deqBest picks the d-choice removal target: the sticky candidate set's
// queue with the smallest cached top word, re-read fresh on every call
// exactly as Algorithm 2 compares possibly-stale heads — one atomic load per
// candidate, no locks. Queues whose word carries the mid-update sentinel
// rank behind every real minimum (their lock would refuse a try anyway), and
// stable-empty queues rank last; the winning key is returned alongside so
// callers skip known-empty winners without re-reading the word. The caller
// charges the window via deqCharge with the number of elements actually
// obtained; an empty or contended outcome should call deqReroll so the next
// draw abandons a stale candidate set early.
func (h *MQHandle) deqBest() (int, uint64) {
	return h.deq.BestKeyed(&h.r, h.q.batch, h.readTop)
}

// readTop adapts the cached top word's comparison key to the sampler's load
// signature.
func (h *MQHandle) readTop(i int) uint64 { return h.q.qs[i].ReadTop().Key() }

// deqCharge consumes n logical operations from the sticky dequeue window.
func (h *MQHandle) deqCharge(n int) { h.deq.Charge(n) }

// deqReroll requests fresh sticky dequeue candidates for the next draw
// without granting them a new window: an empty or contended outcome charges
// nothing but only inherits the budget the abandoned candidates had left
// (Sampler.Reroll).
func (h *MQHandle) deqReroll() { h.deq.Reroll() }

// insert routes one stamped element through the batching layer: direct Add
// in per-op mode, or buffer-and-flush in batched mode.
func (h *MQHandle) insert(priority, value uint64) {
	if h.q.batch <= 1 {
		h.syncEpoch()
		h.addRetrying(priority, value)
		return
	}
	h.inBuf = append(h.inBuf, heap.Item{Priority: priority, Value: value})
	if len(h.inBuf) >= h.q.batch {
		h.Flush()
	}
}

// Enqueue implements Algorithm 2's Enqueue: stamp with the clock, insert
// into a uniformly random queue (sticky across the stickiness window, and
// buffered into one AddBatch per Batch elements in batched mode). It returns
// the priority assigned, which doubles as the element's unique label under a
// Tick clock. The stamp is taken at call time, so batching delays visibility
// but never reorders a handle's own elements.
func (h *MQHandle) Enqueue(value uint64) uint64 {
	h.checkOpen()
	p := h.stamp()
	h.insert(p, value)
	return p
}

// stamp draws the next enqueue timestamp: directly from the clock in per-op
// mode, or from a handle-owned block of Batch consecutive ticks reserved
// with one shared atomic operation when the clock supports it.
func (h *MQHandle) stamp() uint64 {
	if h.q.blk == nil {
		return h.q.clk.Now()
	}
	if h.stampLeft == 0 {
		h.stampNext = h.q.blk.Block(h.q.batch)
		h.stampLeft = h.q.batch
	}
	p := h.stampNext
	h.stampNext++
	h.stampLeft--
	return p
}

// EnqueuePriority inserts with an explicit priority (relaxed priority-queue
// mode), bypassing the clock but using the same sticky/batched insert path.
func (h *MQHandle) EnqueuePriority(priority, value uint64) {
	h.checkOpen()
	h.insert(priority, value)
}

// Dequeue implements Algorithm 2's Dequeue, generalized to the configured
// choice count: sample d random queues, compare their cached top words,
// DeleteMin on the apparently smallest. As in the paper, the comparison uses
// possibly stale information; the deletion itself is linearizable. A chosen
// queue whose word is stable-empty is skipped without touching its lock —
// the word's linearization argument (DESIGN.md §6) makes that observation as
// good as a locked Peek. If the chosen queue turns out empty the operation
// retries, and after 2·m fruitless draws it scans all queues once (flushing
// this handle's own insert buffer first, so a single-handle drain never
// misses its buffered elements); the scan likewise trusts stable-empty words
// and locks only queues that might hold elements, so a drain of an
// all-empty structure performs zero lock acquisitions; ok is false only when
// every queue was observed empty.
//
// In batched mode the winner is drained with DeleteMinUpTo(Batch) and the
// run beyond the first element is served from the handle's prefetch buffer
// by subsequent calls — one lock acquisition per Batch elements.
func (h *MQHandle) Dequeue() (it heap.Item, ok bool) {
	h.checkOpen()
	if h.outPos < len(h.outBuf) {
		it = h.outBuf[h.outPos]
		h.outPos++
		return it, true
	}
	h.syncEpoch()
	for attempt := 0; attempt < 2*h.m; attempt++ {
		i, key := h.deqBest()
		if fail.Enabled && fail.Inject(fail.SiteCoreReroll) != nil {
			// Injected reroll storm: discard the draw as if its queue were
			// contended, exercising the sampler's reroll inheritance.
			h.deqReroll()
			continue
		}
		if key != cpq.TopKeyEmpty {
			if it, ok = h.deleteFrom(i); ok {
				return it, true
			}
		}
		h.deqReroll()
	}
	// Fallback sweep so that draining terminates deterministically. Our own
	// pending inserts are flushed first: they are logically enqueued and a
	// drain must observe them.
	h.Flush()
	h.syncEpoch()
	for i := 0; i < h.m; i++ {
		if h.q.qs[i].ReadTop().StableEmpty() {
			continue
		}
		if it, ok = h.deleteFrom(i); ok {
			return it, true
		}
	}
	return heap.Item{}, false
}

// deleteFrom removes from queue i: a single DeleteMin in per-op mode, or a
// DeleteMinUpTo(Batch) refill in batched mode with the first element
// returned and the rest parked in the prefetch buffer.
func (h *MQHandle) deleteFrom(i int) (heap.Item, bool) {
	if h.q.batch <= 1 {
		it, ok := h.q.qs[i].DeleteMin()
		if ok {
			h.deqCharge(1)
		}
		return it, ok
	}
	h.outBuf = h.q.qs[i].DeleteMinUpTo(h.q.batch, h.outBuf[:0])
	if len(h.outBuf) == 0 {
		h.outPos = 0
		return heap.Item{}, false
	}
	h.deqCharge(len(h.outBuf))
	h.outPos = 1
	return h.outBuf[0], true
}

// DequeueD overrides the configured choice count for one operation: it
// reads the heads of d fresh (never sticky) random queues and deletes from
// the best. d = 1 is the divergent single-choice baseline (ablation A1 for
// queues); prefer MultiQueueConfig.Choices for a structure-wide setting —
// DequeueD exists for per-call sweeps. The retry/sweep structure matches
// Dequeue.
func (h *MQHandle) DequeueD(d int) (it heap.Item, ok bool) {
	if d < 1 {
		panic("core: DequeueD needs d >= 1")
	}
	h.checkOpen()
	if h.outPos < len(h.outBuf) {
		it = h.outBuf[h.outPos]
		h.outPos++
		return it, true
	}
	h.syncEpoch()
	for attempt := 0; attempt < 2*h.m; attempt++ {
		best := h.r.Intn(h.m)
		bestTop := h.q.qs[best].ReadTop().Key()
		for k := 1; k < d; k++ {
			j := h.r.Intn(h.m)
			if top := h.q.qs[j].ReadTop().Key(); top < bestTop {
				best, bestTop = j, top
			}
		}
		if bestTop == cpq.TopKeyEmpty {
			// The winning key already encodes stable-empty; skip without
			// re-reading the word (a second load could disagree with the
			// one the comparison ranked).
			continue
		}
		if it, ok = h.q.qs[best].DeleteMin(); ok {
			return it, true
		}
	}
	h.Flush()
	h.syncEpoch()
	for i := 0; i < h.m; i++ {
		if h.q.qs[i].ReadTop().StableEmpty() {
			continue
		}
		if it, ok = h.q.qs[i].DeleteMin(); ok {
			return it, true
		}
	}
	return heap.Item{}, false
}

// TryDequeue is the lock-avoiding variant used by throughput benchmarks:
// it compares the d sampled cached top words and only try-locks the winner,
// re-drawing on contention instead of spinning. attempts bounds the number
// of draws; ok is false if no element was obtained within the budget.
// Nothing on this path ever blocks on a queue lock, so it routes around
// dead or stalled lock holders in every mode. The comparison already ranks
// mid-update queues behind real minima, and a winner whose word is
// stable-empty is skipped before the try-lock — no CAS, no cache-line
// bounce — so spinning over an empty structure costs only atomic loads.
// Like Dequeue, a batched handle serves its prefetch buffer first, uses the
// sticky candidate set, refills with a try-locked DeleteMinUpTo, and before
// giving up attempts a non-blocking flush of its own insert buffer
// (TryAddBatch to random queues) and retries the budget once.
func (h *MQHandle) TryDequeue(attempts int) (it heap.Item, ok bool) {
	h.checkOpen()
	if h.outPos < len(h.outBuf) {
		it = h.outBuf[h.outPos]
		h.outPos++
		return it, true
	}
	h.syncEpoch()
	for pass := 0; pass < 2; pass++ {
		for a := 0; a < attempts; a++ {
			i, key := h.deqBest()
			if fail.Enabled && fail.Inject(fail.SiteCoreReroll) != nil {
				h.deqReroll()
				continue
			}
			if key == cpq.TopKeyEmpty {
				h.deqReroll()
				continue
			}
			if h.q.batch <= 1 {
				if it, okPop, acquired := h.q.qs[i].TryDeleteMin(); acquired && okPop {
					h.deqCharge(1)
					return it, true
				}
			} else if out, acquired := h.q.qs[i].TryDeleteMinUpTo(h.q.batch, h.outBuf[:0]); acquired && len(out) > 0 {
				h.outBuf = out
				h.outPos = 1
				h.deqCharge(len(out))
				return out[0], true
			}
			// Contended or empty: abandon the sticky pair for a fresh draw.
			h.deqReroll()
		}
		if len(h.inBuf) == 0 {
			break
		}
		if !h.tryFlush(attempts) {
			break
		}
	}
	return heap.Item{}, false
}

// tryFlush attempts to publish the insert buffer without blocking: up to
// attempts random queues are offered the batch with TryAddBatch. Reports
// whether the buffer was published.
func (h *MQHandle) tryFlush(attempts int) bool {
	h.syncEpoch()
	for a := 0; a < attempts; a++ {
		if h.q.qs[h.r.Intn(h.m)].TryAddBatch(h.inBuf) {
			h.inBuf = h.inBuf[:0]
			return true
		}
	}
	return false
}

// EnqueueTraced performs Enqueue and records the operation; the assigned
// priority is the element's label for the dlin queue-spec replay. The
// enqueue is linearized at its invocation (Lin = Start; End is stamped after
// the call): no dequeue can return the element before Enqueue inserts it, so
// every dequeue of it is stamped after this Lin. A stamp taken after Enqueue
// returns would not be sound: in per-op mode, and on the call that flushes a
// batch, the element is visible before that stamp, another handle can
// dequeue it and stamp first, and the replay rejects a genuine history
// ("dequeue of absent label"). In batched mode the element stays buffered,
// invisible to other handles, for a while after its stamp; the replay stays
// sound (the relaxed spec treats dequeue-empty as a zero-cost no-op and
// labels stay unique) but dequeue rank costs are then measured against all
// logically enqueued labels, including still-buffered ones — the same
// accounting as quality.MeasureDequeueRank.
func (h *MQHandle) EnqueueTraced(value uint64, rec *trace.Recorder, log *trace.ThreadLog) uint64 {
	start := rec.Stamp()
	p := h.Enqueue(value)
	log.Record(trace.Event{Kind: trace.KindEnq, Start: start, Lin: start, End: rec.Stamp(), Arg: p})
	return p
}

// DequeueTraced performs Dequeue and records the operation with the removed
// element's label.
func (h *MQHandle) DequeueTraced(rec *trace.Recorder, log *trace.ThreadLog) (heap.Item, bool) {
	start := rec.Stamp()
	it, ok := h.Dequeue()
	lin := rec.Stamp()
	log.Record(trace.Event{Kind: trace.KindDeq, Start: start, Lin: lin, End: lin, Ret: it.Priority, OK: ok})
	return it, ok
}
