package core

import (
	"repro/internal/cpq"
	"repro/internal/fail"
	"repro/internal/heap"
	"repro/internal/pad"
	"repro/internal/rng"
	"repro/internal/trace"
	"runtime"
	"slices"
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
	qs []cpq.Queue // len m, one block each
	// tick issues enqueue stamps: strictly unique, consistently ordered, a
	// contract at least as strong as the paper's consistent per-processor
	// clocks. Its word is allocated apart, on its own line, so the stamp
	// traffic does not bounce the line every operation reads qs and m from.
	tick  *pad.Uint64
	m     int
	d     int
	stick int
	batch int
}

// MultiQueueConfig configures NewMultiQueue. The zero value of optional
// fields selects defaults.
type MultiQueueConfig struct {
	// Topology.InitialM is m, the number of internal priority queues, fixed
	// at construction. It must be positive.
	Topology Topology
	// Seed has no effect: its only consumer was the level generator of the
	// skip-list store the queues no longer offer. The field stays until the
	// benchmark, which sets it, stops doing so.
	Seed uint64
	// Choices is d, the number of random queue heads a dequeue compares
	// before deleting from the smallest. 0 selects the paper's d = 2;
	// d = 1 is the divergent single-choice baseline (ablation A1); d > 2
	// tightens rank quality at the cost of extra top-word loads; d > m
	// clamps to m. Negative values panic. Enqueues always use one uniform
	// choice, as in Algorithm 2.
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
	// flush them with one cpq.TryAddBatch, and prefetch up to k elements per
	// dequeue refill with one cpq.TryDeleteMinUpTo — one lock acquisition and
	// one cached-top publish per k elements instead of per element. 0 or 1
	// is the same path with batches of one: Algorithm 2's per-operation
	// Add and DeleteMin. Buffered enqueues are invisible to other handles
	// until the batch flushes (call MQHandle.Flush at quiescence), but the
	// owning handle dequeues its smallest buffered key directly whenever it
	// ranks below the element the handle would serve otherwise: its next
	// prefetched element, or the top its refill draw would delete from.
	// Prefetched elements are already dequeued from the shared structure.
	Batch int
}

// NewMultiQueue returns a MultiQueue with the given configuration.
func NewMultiQueue(cfg MultiQueueConfig) *MultiQueue {
	m := cfg.Topology.shards("MultiQueueConfig")
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
	return &MultiQueue{
		qs:    cpq.NewShards(m),
		tick:  new(pad.Uint64),
		m:     m,
		d:     min(cfg.Choices, m),
		stick: cfg.Stickiness,
		batch: cfg.Batch,
	}
}

// Choices returns the configured number of dequeue choices d (1 ≤ d ≤ m).
func (q *MultiQueue) Choices() int { return q.d }

// Stickiness returns the configured stickiness window s (>= 1).
func (q *MultiQueue) Stickiness() int { return q.stick }

// Batch returns the configured batching factor k (>= 1).
func (q *MultiQueue) Batch() int { return q.batch }

// Len returns the total number of stored elements (exact at quiescence).
// In batched mode, elements a handle still buffers (MQHandle.Buffered) are
// not counted until that handle flushes, and prefetched elements
// (MQHandle.Prefetched) are already excluded — flush all handles before a
// Len audit.
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
	// LockContended counts blocking lock acquisitions that entered the slow
	// path.
	LockContended uint64
}

// Stats sums the internal queues' event counters without taking any locks.
func (q *MultiQueue) Stats() MQStats {
	var s MQStats
	for i := range q.qs {
		qs := q.qs[i].Stats()
		s.Elisions += qs.Elisions
		s.Publications += qs.Publications
		s.LockContended += qs.LockContended
	}
	return s
}

// SnapshotElements appends the structure's full contents to dst and returns
// the extended slice — the point-in-time read the durability snapshotter
// needs. Each shard appends its sorted run and its pending heap under its own
// lock and moves nothing, so the placement the next dequeues see is the one
// before the capture. The capture is only a consistent cut if the caller has
// quiesced concurrent mutators (dlzd's snapshotter holds every tenant's
// operation gate, and every request empties its handles before it lets go
// of the gate).
func (q *MultiQueue) SnapshotElements(dst []heap.Item) []heap.Item {
	for i := range q.qs {
		dst = q.qs[i].AppendTo(dst)
	}
	return dst
}

// MQHandle binds a MultiQueue to one goroutine's private generator and the
// handle-local state: the sticky samplers holding the current queue choices,
// the insert buffer awaiting its batch flush, and the prefetched dequeue run
// (both buffers hold at most one element at Batch 1). A handle must be used
// by one goroutine at a time.
//
// The struct is padded to three whole cache lines; a field that changes its
// size must re-pad it, or handles minted back to back share a line
// (TestHandlesOwnTheirCacheLines).
type MQHandle struct {
	q *MultiQueue
	r rng.Xoshiro256 // by value: no separate allocation to share a line

	// Sticky sampling state: one uniform choice for inserts (Algorithm 2's
	// enqueue), d choices for removals.
	enq Sampler
	deq Sampler

	// Batching state: the pending inserts, sorted ascending in inBuf, a window
	// of the array in, and the prefetched dequeue run, ascending from outPos.
	// Both arrays are carved from one fixed backing array sized at NewHandle
	// with full-slice expressions capping them at Batch, so the steady-state hot
	// path never grows either and performs zero allocations per operation
	// (cpq.TryAddBatch reads at most len(inBuf) <= Batch items;
	// cpq.TryDeleteMinUpTo appends at most Batch items into cap-Batch outBuf).
	// BenchmarkMultiQueueHotPathAllocs and TestMQHandleHotPathZeroAlloc enforce
	// the invariant.
	in, inBuf []heap.Item
	outBuf    []heap.Item
	outPos    int

	// Block-reserved enqueue stamps: Batch consecutive ticks per reservation.
	stampNext uint64
	stampLeft int

	// closed marks a handle retired by Close: its buffers are drained and
	// every further operation is a programming error.
	closed bool

	_ [3*pad.CacheLine - 288]byte
}

// NewHandle returns a per-goroutine handle seeded with seed, inheriting the
// MultiQueue's choice count, stickiness window and batching factor. Both
// samplers draw uniformly: one choice per insert (Algorithm 2's enqueue), d
// per removal.
func (q *MultiQueue) NewHandle(seed uint64) *MQHandle {
	h := &MQHandle{
		q:   q,
		r:   *rng.NewXoshiro256(seed),
		enq: NewSampler(q.m, 1, q.stick),
		deq: NewSampler(q.m, q.d, q.stick),
	}
	backing := make([]heap.Item, 2*q.batch)
	h.in = backing[0:0:q.batch]
	h.inBuf = h.in
	h.outBuf = backing[q.batch : q.batch : 2*q.batch]
	return h
}

// Queue returns the underlying MultiQueue.
func (h *MQHandle) Queue() *MultiQueue { return h.q }

// Buffered returns the number of enqueued elements held in this handle's
// insert buffer, not yet visible to other handles. Zero unless Batch > 1.
func (h *MQHandle) Buffered() int { return len(h.inBuf) }

// Rerolls returns the number of outcomes that requested fresh sticky
// candidates (Sampler.Reroll) over this handle's lifetime: dequeue draws
// whose winner was empty or locked, and insert publishes whose shard refused
// the try-lock. It is the sampler-pressure and contention signal dlzd's
// /metrics aggregates; a contended shard is redrawn, not waited on, so this
// counter, not the lock's contended counter, is where contention shows.
func (h *MQHandle) Rerolls() uint64 { return h.deq.Rerolls() + h.enq.Rerolls() }

// Close retires the handle: buffered inserts are flushed to the shared
// structure, unconsumed prefetched elements are returned to it (they were
// already removed by a DeleteMinUpTo refill and would otherwise be lost
// with the handle — the abandoned-handle bug this contract fixes), and the
// handle is invalidated. After Close, Buffered and Prefetched are zero and
// any further operation panics; closing an already-closed handle is a no-op.
// Owners that abandon a handle without a final Flush and ReturnPrefetched
// must Close it, or the structure silently loses the buffered elements.
func (h *MQHandle) Close() {
	if h.closed {
		return
	}
	h.Flush()
	h.ReturnPrefetched()
	h.closed = true
}

// checkOpen panics when the handle has been closed; every mutating
// entry point calls it (one predictable branch on the hot path).
func (h *MQHandle) checkOpen() {
	if h.closed {
		panic("core: operation on closed MQHandle")
	}
}

// Prefetched returns the number of already-dequeued elements this handle
// holds and will return from upcoming Dequeue calls. Zero unless Batch > 1.
func (h *MQHandle) Prefetched() int { return len(h.outBuf) - h.outPos }

// Flush publishes any buffered inserts to the shared structure with one
// batched add (publish): the sticky insert target is offered the batch with
// a try-lock, a refusal yields and redraws, and only after m refusals does
// Flush wait on a lock. Call at quiescence (before a Len audit or a drain by
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
	h.publish(h.inBuf, true)
	h.inBuf = h.in
}

// ReturnPrefetched hands the handle's unconsumed prefetched elements back
// to the shared structure without retiring the handle — the step that lets
// an owner keep a handle between uses without holding elements (they were
// physically removed by a DeleteMinUpTo refill but are logically still
// queued); dlzd runs it on every handle pair it gives back to its pool. The
// handle stays open; its next Dequeue simply refills. Pair with Flush for a
// full quiesce of both buffers. The elements go back, reversed to descending
// (the order a shard's batch insert places without shifting), through the
// same uniform sticky insert rule as an enqueue batch.
func (h *MQHandle) ReturnPrefetched() {
	h.checkOpen()
	if rest := h.outBuf[h.outPos:]; len(rest) > 0 {
		slices.Reverse(rest)
		h.publish(rest, true)
	}
	h.outBuf, h.outPos = h.outBuf[:0], 0
}

// publish adds items to the queue the sticky uniform insert sampler draws
// and charges the stickiness window for them. Each drawn queue is offered
// the items with a try-lock. A refusal rerolls the sampler, which keeps only
// the window budget the refused choice had left, yields the processor once
// and draws again: the yield lets a lock holder the scheduler preempted run
// and release, where routing around it would leave its queue without any of
// the elements stamped meanwhile (DESIGN.md §2, "Contention"). After m
// refusals publish waits on one more draw's lock if block is set, and
// otherwise reports false with nothing moved. A choice serves at most
// max(stick, batch) elements — exactly stick when batch divides into it,
// one whole batch when batch exceeds the window (the sampler never splits a
// batch across choices).
func (h *MQHandle) publish(items []heap.Item, block bool) bool {
	n := len(items)
	for a := 0; a < h.q.m; a++ {
		if h.q.qs[h.enq.Candidates(&h.r, n)[0]].TryAddBatch(items) {
			h.enq.Charge(n)
			return true
		}
		h.enq.Reroll()
		runtime.Gosched()
	}
	if block {
		h.q.qs[h.enq.Candidates(&h.r, n)[0]].AddBatch(items)
		h.enq.Charge(n)
	}
	return block
}

// deqBest picks the d-choice removal target: the sticky candidate set's
// queue with the smallest cached top word, re-read fresh on every call
// exactly as Algorithm 2 compares possibly-stale heads — one atomic load per
// candidate, no locks. Queues whose word carries the mid-update sentinel
// rank behind every real minimum (their lock would refuse a try anyway), and
// stable-empty queues rank last; the winning key is returned alongside so
// callers skip known-empty winners without re-reading the word. The caller
// charges the window (deq.Charge) with the number of elements actually
// obtained; an empty or contended outcome calls deq.Reroll, which requests
// fresh candidates without granting them a new window, so the next draw
// abandons a stale candidate set early.
func (h *MQHandle) deqBest() (int, uint64) {
	return h.deq.BestKeyed(&h.r, h.q.batch, h.readTop)
}

// readTop adapts the cached top word's comparison key to the sampler's load
// signature.
func (h *MQHandle) readTop(i int) uint64 { return h.q.qs[i].ReadTop().Key() }

// insert places one stamped element into the insert buffer, kept sorted
// ascending (the smallest first, where takeOwn takes it in O(1); a clock stamp
// lands last without shifting), and flushes the buffer once it holds Batch
// elements (at Batch 1, on every insert). A window that takeOwn moved to the
// array's end first moves back to its start.
func (h *MQHandle) insert(priority, value uint64) {
	if len(h.inBuf) == cap(h.inBuf) {
		h.inBuf = append(h.in, h.inBuf...)
	}
	b := append(h.inBuf, heap.Item{})
	i := len(b) - 1
	for ; i > 0 && b[i-1].Priority > priority; i-- {
		b[i] = b[i-1]
	}
	b[i] = heap.Item{Priority: priority, Value: value}
	if h.inBuf = b; len(b) >= h.q.batch {
		h.Flush()
	}
}

// Enqueue implements Algorithm 2's Enqueue: stamp with the clock, insert
// into a uniformly random queue (sticky across the stickiness window, and
// buffered into one AddBatch per Batch elements in batched mode). It returns
// the priority assigned, which doubles as the element's unique label. The
// stamp is taken at call time, so batching delays visibility but never
// reorders a handle's own elements.
func (h *MQHandle) Enqueue(value uint64) uint64 {
	h.checkOpen()
	p := h.stamp()
	h.insert(p, value)
	return p
}

// stamp draws the next enqueue timestamp from a handle-owned block of Batch
// consecutive ticks, reserved with one atomic add on the queue's tick word
// (at Batch 1, one Add(1) per enqueue). A reserved tick may be assigned
// after another handle draws a larger one — bounded extra relaxation of the
// same kind the insert buffer already introduces (at most Batch stamps per
// handle).
func (h *MQHandle) stamp() uint64 {
	if h.stampLeft == 0 {
		k := uint64(h.q.batch)
		h.stampNext = h.q.tick.Add(k) - k + 1
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
// delete from the apparently smallest. As in the paper, the comparison uses
// possibly stale information; the deletion itself is linearizable. A chosen
// queue whose word is stable-empty is skipped without touching its lock —
// the word's linearization argument (DESIGN.md §6) makes that observation as
// good as a locked Peek — and the winner is only try-locked: a queue that
// turns out empty or whose lock is held (draw) yields once, rerolls the
// sampler, and the operation draws again, so a dequeuer never waits behind a busy queue while
// other queues are drawable. After 2·m fruitless draws it scans all queues
// once (flushing this handle's own insert buffer first, so a single-handle
// drain never misses its buffered elements); the scan is the one step that
// waits on a lock, and it likewise trusts stable-empty words and locks only
// queues that might hold elements, so a drain of an all-empty structure
// performs zero lock acquisitions; ok is false only when every queue was
// observed empty.
//
// The winner is drained with DeleteMinUpTo(Batch) and the run beyond the
// first element is served from the handle's prefetch buffer by subsequent
// calls — one lock acquisition per Batch elements (per element at Batch 1).
// The smallest key the handle still buffers is returned instead of its
// prefetched head, or of a refill winner's stable top, whenever it ranks below
// that element (local, takeOwn), touching no shard.
func (h *MQHandle) Dequeue() (it heap.Item, ok bool) {
	h.checkOpen()
	if it, ok = h.local(); ok {
		return it, true
	}
	if it, ok = h.draw(2 * h.q.m); ok {
		return it, true
	}
	// Fallback sweep so that draining terminates deterministically. Our own
	// pending inserts are flushed first: they are logically enqueued and a
	// drain must observe them.
	h.Flush()
	for i := range h.q.qs {
		if h.q.qs[i].ReadTop().StableEmpty() {
			continue
		}
		if it, ok = h.deleteFrom(i, true); ok {
			return it, true
		}
	}
	return heap.Item{}, false
}

// draw is the d-choice loop Dequeue and TryDequeue share: up to n draws,
// each comparing the sticky candidates' top words and try-locking the
// winner (deleteFrom without block), unless the winner's top is stable and
// the handle's own insert buffer holds a smaller element (takeOwn). A
// stable-empty winner, an empty queue and a refused lock all reroll the
// sampler for a fresh draw; a winner whose word was not empty but that gave
// nothing also yields the processor once first, as publish does on a
// refusal. ok is false if no draw obtained an element.
func (h *MQHandle) draw(n int) (it heap.Item, ok bool) {
	for a := 0; a < n; a++ {
		i, key := h.deqBest()
		if fail.Enabled && fail.Inject(fail.SiteCoreReroll) != nil {
			// Injected reroll storm: discard the draw as if its queue were
			// contended, exercising the sampler's reroll inheritance.
			h.deq.Reroll()
			continue
		}
		if key < cpq.TopKeyInFlight {
			if it, ok = h.takeOwn(key); ok {
				return it, true
			}
		}
		if key != cpq.TopKeyEmpty {
			if it, ok = h.deleteFrom(i, false); ok {
				return it, true
			}
			runtime.Gosched()
		}
		h.deq.Reroll()
	}
	return heap.Item{}, false
}

// local serves a dequeue from the prefetched run, if one is left: the
// smaller of its head and the handle's smallest buffered key (DESIGN.md §2,
// "Local-min dequeue").
func (h *MQHandle) local() (it heap.Item, ok bool) {
	if h.outPos < len(h.outBuf) {
		if it, ok = h.takeOwn(h.outBuf[h.outPos].Priority); !ok {
			it, ok = h.outBuf[h.outPos], true
			h.outPos++
		}
	}
	return it, ok
}

// takeOwn removes and returns the insert buffer's smallest element, its
// first, if it ranks below key: the prefetched head, or a draw winner's stable
// top, which never exceeds the minimum the try-lock would delete. It takes no
// lock, charges no window and requests no reroll.
func (h *MQHandle) takeOwn(key uint64) (it heap.Item, ok bool) {
	if len(h.inBuf) > 0 && h.inBuf[0].Priority < key {
		it, h.inBuf, ok = h.inBuf[0], h.inBuf[1:], true
	}
	return it, ok
}

// deleteFrom refills from queue i with DeleteMinUpTo(Batch), returning the
// first element and parking the rest in the prefetch buffer (at Batch 1
// there is no rest). Without block it only try-locks the queue, and a
// refused lock reads as empty. The window is charged for the elements
// obtained.
func (h *MQHandle) deleteFrom(i int, block bool) (it heap.Item, ok bool) {
	q := &h.q.qs[i]
	if block {
		h.outBuf = q.DeleteMinUpTo(h.q.batch, h.outBuf[:0])
	} else {
		h.outBuf, _ = q.TryDeleteMinUpTo(h.q.batch, h.outBuf[:0])
	}
	if len(h.outBuf) == 0 {
		h.outPos = 0
		return heap.Item{}, false
	}
	h.deq.Charge(len(h.outBuf))
	h.outPos = 1
	return h.outBuf[0], true
}

// TryDequeue is Dequeue without its blocking sweep: up to attempts draws of
// the same loop (draw), and nothing on this path ever waits on a queue lock,
// so it routes around dead or stalled lock holders in every mode. The
// comparison already ranks mid-update queues behind real minima, and a winner
// whose word is stable-empty is skipped before the try-lock — no CAS, no
// cache-line bounce — so spinning over an empty structure costs only atomic
// loads. Like Dequeue, a batched handle serves its prefetch buffer first, by
// the same local-min rule; before giving up it offers its own insert buffer
// to m drawn queues by try-lock (publish without block) and, if one takes it,
// draws once more. ok is false if no element was obtained within the budget.
func (h *MQHandle) TryDequeue(attempts int) (it heap.Item, ok bool) {
	h.checkOpen()
	if it, ok = h.local(); ok {
		return it, true
	}
	if it, ok = h.draw(attempts); ok || len(h.inBuf) == 0 || !h.publish(h.inBuf, false) {
		return it, ok
	}
	h.inBuf = h.in
	return h.draw(attempts)
}

// EnqueueTraced performs Enqueue and records the operation; the assigned
// priority is the element's label for the dlin queue-spec replay. The
// enqueue is linearized at its invocation (Lin = Start; End is stamped after
// the call): no dequeue can return the element before Enqueue inserts it, so
// every dequeue of it is stamped after this Lin. A stamp taken after Enqueue
// returns would not be sound: on the call that flushes the buffer (every
// call at Batch 1) the element is visible before that stamp, another handle
// can dequeue it and stamp first, and the replay rejects a genuine history
// ("dequeue of absent label"). At Batch > 1 the element stays buffered,
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
