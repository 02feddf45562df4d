// Package cpq provides the linearizable concurrent priority queue that
// Algorithm 2 assumes as its building block: "a set of m linearizable
// priority queues such that each supports Add(e, p), DeleteMin, ReadMin".
// A Queue moves elements in batches only, and the paper's three operations
// are their smallest cases: Add(e, p) is an AddBatch of one item, DeleteMin
// is DeleteMinUpTo(1), and ReadMin is ReadTop().Min(). A batch of k moves k
// elements under one lock acquisition and one top-word publish.
//
// Each Queue is a sequential priority queue (heap.Binary's sorted run and
// pending heap) guarded by a spinlock, plus a lock-free top word: a single
// atomic uint64 (pad.Seq64) packing the truncated minimum priority, an empty
// bit and a publication sequence whose parity is the mid-update sentinel (see
// TopWord). Lock, top word, the lock holder's bookkeeping and the heap's
// header share one pad.CacheLine block, and NewShards lays a structure's
// queues out as one array of such blocks. AddBatch and DeleteMinUpTo call
// heap.Binary's whole-batch entry points, which hand back the post-batch
// minimum the publish step needs.
//
// The top word is what makes the MultiQueue's d-choice comparison and its
// empty-queue scan cheap: a dequeuer inspects d queues' cached tops with one
// atomic load each — no lock, ever — then locks only the winner. A lock
// holder about to change the published state marks the word mid-update on
// entry (Seq64.Begin, retaining the stale payload) and republishes the
// exact new minimum before release (Seq64.Publish); critical sections that
// provably cannot change the word — an insert at or above the published
// minimum of a non-empty queue, a delete on a published-empty queue — elide
// the pair entirely, leaving the word exact without a single store. Either
// way a stable word — even sequence — equals the queue's true minimum at
// the instant of the load, and a mid-update word is the "stale but
// previously true" information the paper's analysis models.
// Readers that cannot use a possibly-stale answer (the MultiQueue's dequeue
// draws ranking contended queues last, the drain sweep trusting emptiness)
// dispatch on the sentinel instead of taking the lock.
package cpq

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"unsafe"

	"repro/internal/fail"
	"repro/internal/heap"
	"repro/internal/pad"
)

// Top-word encoding. The cached top is one pad.Seq64 word:
//
//	bits 63..16  prio48 — the minimum priority truncated to its low
//	             TopPrioBits bits (exact for every priority below 2^48;
//	             clock stamps reach 2^48 after ~2.8·10^14 enqueues)
//	bit  15      empty  — set when the queue was empty at publication
//	             (prio48 is all-ones then, so Key ordering needs no branch
//	             on real priorities)
//	bits 14..0   seq    — publication sequence; odd = mid-update sentinel
//
// The lock holder calls Begin at the top of every critical section that can
// change the published state (sequence goes odd, payload keeps the last
// published value) and Publish with the exact new minimum before release
// (sequence goes even); sections that provably cannot change the word elide
// both calls (see topCovers). Readers decode all of it from a single atomic
// load via TopWord.
const (
	// TopPrioBits is the width of the truncated priority field: 64 bits
	// minus the sequence field minus the empty bit.
	TopPrioBits = 63 - pad.SeqBits
	// TopPrioMask selects the priority bits a published word can carry;
	// TopWord.Key returns stable minima reduced to this mask.
	TopPrioMask = 1<<TopPrioBits - 1
	// TopKeyInFlight is the comparison key of a mid-update word: it loses to
	// every real minimum, so d-choice comparisons skip queues whose lock
	// holder is mid-mutation (their lock would refuse a try anyway).
	TopKeyInFlight = 1 << TopPrioBits
	// TopKeyEmpty is the comparison key of a stable empty word: it loses
	// even to mid-update queues, which at least might hold elements.
	TopKeyEmpty = 1<<TopPrioBits + 1
)

// topSeqMask selects the sequence field of a raw top word.
const topSeqMask = 1<<pad.SeqBits - 1

// topPayload packs (truncated minimum, empty bit) into a Seq64 payload.
func topPayload(min uint64, empty bool) uint64 {
	if empty {
		return TopPrioMask<<1 | 1
	}
	return (min & TopPrioMask) << 1
}

// TopWord is a decoded view of a queue's cached top — the raw Seq64 word,
// read with one atomic load and carrying everything the lock-free read paths
// need: the truncated minimum, the empty bit and the mid-update sentinel.
type TopWord uint64

// InFlight reports the mid-update sentinel: a lock holder has entered a
// mutating critical section and not yet republished. The word's payload
// still carries the last published (stale but previously true) value.
func (w TopWord) InFlight() bool { return w&1 == 1 }

// Empty reports the empty bit: the queue held nothing when the word was
// published.
func (w TopWord) Empty() bool { return w>>pad.SeqBits&1 == 1 }

// StableEmpty reports a trustworthy emptiness observation: the word is not
// mid-update and its empty bit is set, so the queue was truly empty at the
// load's linearization point. The MultiQueue's drain sweep skips such queues
// without touching their locks.
func (w TopWord) StableEmpty() bool { return w&1 == 0 && w.Empty() }

// Seq returns the word's publication sequence. It advances by exactly 2 per
// word-changing critical section (modulo 2^pad.SeqBits; covered inserts and
// empty deletes elide publication — see topCovers), which makes it a
// publication counter the coherence tests read; an odd value is the
// mid-update sentinel.
func (w TopWord) Seq() uint64 { return uint64(w) & topSeqMask }

// Key returns the d-choice comparison key: the truncated minimum for stable
// non-empty words, TopKeyInFlight for mid-update words and TopKeyEmpty for
// stable empty ones, so argmin over keys prefers real minima, then
// possibly-full contended queues, then known-empty queues.
func (w TopWord) Key() uint64 {
	if w.InFlight() {
		return TopKeyInFlight
	}
	if w.Empty() {
		return TopKeyEmpty
	}
	return uint64(w) >> (pad.SeqBits + 1)
}

// Backing is a vestige with no named values and no methods: every queue is a
// heap.Binary, and the type survives only so the benchmark's
// cpq.New(backing, capacity, seed) call keeps compiling until its next
// revision drops the argument. Its zero value is the only one New accepts.
type Backing int

// Queue is one linearizable priority queue: exactly one pad.CacheLine block
// holding every word a critical section reads or writes, the heap's header
// included (only its chunk table and item arrays live elsewhere). Create a
// structure's queues with NewShards, which aligns each to its own block; a
// Queue must not be copied.
type Queue struct {
	lock pad.SpinLock
	top  pad.Seq64 // lock-free top word; see the TopWord encoding
	// pubMin/pubEmpty mirror the published word at full 64-bit resolution.
	// They are lock-holder-owned plain fields (written only inside
	// publishing critical sections, read only under the lock) and exist so
	// the publication-elision check topCovers can compare full priorities —
	// the truncated word alone cannot prove an insert harmless when
	// priorities above 2^TopPrioBits are in play.
	pubMin   uint64
	pubEmpty bool
	// elisions/publications count the publication protocol's two outcomes:
	// critical sections that proved the word unchanged and skipped the
	// Begin/Publish pair, and sections that republished. Incremented only
	// while the lock is held — the block is already exclusive, so the atomic
	// add costs a handful of cycles — and read lock-free by Stats for
	// monitoring (dlzd's /metrics).
	elisions     atomic.Uint64
	publications atomic.Uint64
	pq           heap.Binary
	_            [pad.CacheLine - 120]byte // the fields above are 120 bytes
}

// NewShards returns n empty queues as one contiguous array whose every
// element starts on a pad.CacheLine boundary: shard i's lock, top word and
// heap header are one block, and no two shards share one. Each heap is the
// zero heap.Binary, so an empty shard holds no element storage; its run's
// chunks and its pending array are allocated as elements arrive.
func NewShards(n int) []Queue {
	qs := alignedQueues(n)
	for i := range qs {
		q := &qs[i]
		q.top.Init(topPayload(0, true))
		q.pubEmpty = true
	}
	return qs
}

// alignedQueues allocates n zero queues starting on a pad.CacheLine boundary.
// The allocator places an object at a multiple of its size class within a
// page-aligned span, and every class that a whole number of 128-byte blocks
// rounds up to is itself a multiple of 128, so an array of queues lands on a
// boundary — unless a type header sits in front of it, as Go 1.22+ puts one
// in front of every object with pointers between 512 bytes and 32 KiB (and
// the header-grown request may round to a class that is not a multiple of
// 128: 5 queues, 648 bytes, class 704). Every class above
// 512 bytes is a multiple of 64, so the array's offset modulo 64 is the
// header's size. The array is then allocated again behind a pad that rounds
// header and pad up to one block, which makes the request a whole number of
// blocks once more. TestShardsOwnTheirLines holds the result to the boundary.
func alignedQueues(n int) []Queue {
	qs := make([]Queue, n)
	off := uintptr(unsafe.Pointer(unsafe.SliceData(qs))) % pad.CacheLine
	if n == 0 || off == 0 {
		return qs
	}
	hdr := off % 64
	t := reflect.StructOf([]reflect.StructField{
		{Name: "Pad", Type: reflect.ArrayOf(int(pad.CacheLine-hdr), reflect.TypeOf(byte(0)))},
		{Name: "Queues", Type: reflect.ArrayOf(n, reflect.TypeOf(qs).Elem())},
	})
	p := reflect.New(t).Elem().Field(1).Addr().UnsafePointer()
	return unsafe.Slice((*Queue)(p), n)
}

// New returns one empty queue alone in its block, its heap built with the
// given capacity hint (heap.NewBinary). The Backing and the seed are
// vestiges that keep the benchmark's call compiling: every queue is a
// heap.Binary, the seed is ignored, and a nonzero Backing — a value that
// once named another store — panics rather than silently measuring this one.
func New(b Backing, capacity int, _ uint64) *Queue {
	if b != 0 {
		panic(fmt.Sprintf("cpq: unknown backing %d", b))
	}
	q := &NewShards(1)[0]
	q.pq = *heap.NewBinary(capacity)
	return q
}

// beginTop marks the top word mid-update; callers must hold the lock and be
// about to change the published state. Readers that land between beginTop
// and publishTopItem see the sentinel plus the last published minimum.
func (q *Queue) beginTop() { q.top.Begin() }

// topCovers reports whether the published top already covers an insert whose
// minimum priority is p: the queue is non-empty with published minimum <= p,
// so the insert cannot change the word's value or emptiness and the whole
// Begin/Publish pair is elided — the stable word stays exact without a
// single atomic store. Under the MultiQueue's monotone clock stamps nearly
// every steady-state insert is covered, which makes the enqueue-side
// critical section store-free. Callers must hold the lock; the comparison
// uses the full-resolution mirror, so priorities beyond the word's truncated
// field cannot fool it.
func (q *Queue) topCovers(p uint64) bool { return !q.pubEmpty && p >= q.pubMin }

// publishTopItem republishes the top word from an already-known minimum
// (ok false meaning empty), maintaining the full-resolution mirror; callers
// must hold the lock.
func (q *Queue) publishTopItem(it heap.Item, ok bool) {
	if fail.Enabled {
		// We are between Begin and Publish inside a spinlock critical
		// section: a delay here stretches the window in which readers see
		// the mid-update sentinel. Error returns are ignored and panic
		// policies must not be armed at this site (the lock would be
		// stranded) — see the site taxonomy in package fail.
		_ = fail.Inject(fail.SiteCPQTopPublish)
	}
	q.pubMin, q.pubEmpty = it.Priority, !ok
	q.top.Publish(topPayload(it.Priority, !ok))
	q.publications.Add(1)
}

// addLocked inserts one item under the held lock with the publication
// protocol applied: elided when the published top covers the priority,
// Begin/Publish bracketing otherwise. An insert the published top does not
// cover is the new minimum, so it publishes the item itself without a Peek.
func (q *Queue) addLocked(it heap.Item) {
	if q.topCovers(it.Priority) {
		q.elisions.Add(1)
		q.pq.Push(it)
		return
	}
	q.beginTop()
	q.pq.Push(it)
	q.publishTopItem(it, true)
}

// addBatchLocked inserts a non-empty batch under the held lock with the
// publication protocol applied. A one-item batch (a MultiQueue insert at
// Batch 1) takes addLocked's single Push, which costs less than PushBatch's
// stack run and merge.
func (q *Queue) addBatchLocked(items []heap.Item) {
	if len(items) == 1 {
		q.addLocked(items[0])
		return
	}
	if q.topCovers(batchMin(items)) {
		q.elisions.Add(1)
		q.pq.PushBatch(items)
		return
	}
	q.beginTop()
	min, ok := q.pq.PushBatch(items)
	q.publishTopItem(min, ok)
}

// drainLocked removes up to k minima into dst under the held lock with the
// publication protocol applied.
func (q *Queue) drainLocked(k int, dst []heap.Item) []heap.Item {
	if q.pubEmpty {
		q.elisions.Add(1)
		return dst
	}
	q.beginTop()
	dst, min, ok := q.pq.PopBatch(k, dst)
	q.publishTopItem(min, ok)
	return dst
}

// batchMin returns the smallest priority in a non-empty batch — the value
// the publication-elision check compares against the published minimum.
func batchMin(items []heap.Item) uint64 {
	min := items[0].Priority
	for _, it := range items[1:] {
		if it.Priority < min {
			min = it.Priority
		}
	}
	return min
}

// AddBatch inserts all items under one lock acquisition with one cached-top
// publish, amortising the lock hand-off and the top-store cache-line write
// over len(items) elements through heap.Binary's PushBatch. It is the insert
// half of the MultiQueue's sticky/batched fast path; an empty batch is a
// no-op that takes no lock.
func (q *Queue) AddBatch(items []heap.Item) {
	if len(items) == 0 {
		return
	}
	q.lock.Lock()
	q.addBatchLocked(items)
	q.lock.Unlock()
}

// TryAddBatch is AddBatch's non-blocking variant: it inserts the batch only
// if the lock is free, reporting whether the insert happened (false means
// the queue was contended). An empty batch reports true without touching
// the lock.
func (q *Queue) TryAddBatch(items []heap.Item) bool {
	if len(items) == 0 {
		return true
	}
	if fail.Enabled && fail.Inject(fail.SiteCPQTryRefuse) != nil {
		return false
	}
	if !q.lock.TryLock() {
		return false
	}
	q.addBatchLocked(items)
	q.lock.Unlock()
	return true
}

// DeleteMinUpTo removes up to k minimum items under one lock acquisition,
// appending them to dst in ascending priority order and returning the
// extended slice. Fewer than k items are returned only when the queue runs
// empty; dst is returned unchanged when the queue is empty or k <= 0. This
// is the remove half of the MultiQueue's sticky/batched fast path: one lock
// and one cached-top publish per k elements instead of per element.
func (q *Queue) DeleteMinUpTo(k int, dst []heap.Item) []heap.Item {
	if k <= 0 {
		return dst
	}
	q.lock.Lock()
	dst = q.drainLocked(k, dst)
	q.lock.Unlock()
	return dst
}

// TryDeleteMinUpTo is DeleteMinUpTo's non-blocking variant: acquired
// reports whether the lock was obtained; when it is false the queue was
// contended and dst is returned unchanged. With the lock held it drains up
// to k items exactly like DeleteMinUpTo (so fewer than k with acquired true
// means the queue ran empty).
func (q *Queue) TryDeleteMinUpTo(k int, dst []heap.Item) (out []heap.Item, acquired bool) {
	if k <= 0 {
		return dst, true
	}
	if fail.Enabled && fail.Inject(fail.SiteCPQTryRefuse) != nil {
		return dst, false
	}
	if !q.lock.TryLock() {
		return dst, false
	}
	dst = q.drainLocked(k, dst)
	q.lock.Unlock()
	return dst, true
}

// ReadTop returns the queue's decoded top word from a single atomic load —
// zero lock acquisitions, the steady-state read path of the MultiQueue's
// d-choice comparison and empty-queue scan. A stable word (even sequence)
// equals the queue's true state at the load's linearization point; a
// mid-update word carries the sentinel plus the last published minimum. It
// is small enough to inline into the d-choice loop.
func (q *Queue) ReadTop() TopWord { return TopWord(q.top.LoadWord()) }

// Len returns the number of elements under the lock (exact at quiescence).
func (q *Queue) Len() int {
	q.lock.Lock()
	n := q.pq.Len()
	q.lock.Unlock()
	return n
}

// AppendTo appends every element to dst under the lock and returns the
// extended slice, in unspecified order; the queue keeps every element and
// its published top word. The durability snapshot uses it to copy a shard
// without moving anything.
func (q *Queue) AppendTo(dst []heap.Item) []heap.Item {
	q.lock.Lock()
	dst = q.pq.AppendTo(dst)
	q.lock.Unlock()
	return dst
}

// QueueStats is a point-in-time snapshot of one queue's internal event
// counters — the observability surface dlzd's /metrics aggregates per
// tenant. All counters are monotonic since construction.
type QueueStats struct {
	// Elisions counts critical sections that proved the published top word
	// unchanged and skipped the Begin/Publish pair entirely: covered inserts
	// (batch minimum at or above the published minimum of a non-empty queue)
	// and deletes on a published-empty queue. Steady-state monotone-stamp
	// enqueues are almost all elisions (DESIGN.md §6).
	Elisions uint64
	// Publications counts critical sections that republished the top word.
	Publications uint64
	// LockContended counts blocking Lock acquisitions that found the lock
	// held and entered the slow path (pad.SpinLock.Contended).
	LockContended uint64
}

// Stats returns the queue's event counters without taking the lock. Each
// counter is individually exact; the snapshot as a whole is racy under
// concurrency, which monitoring tolerates.
func (q *Queue) Stats() QueueStats {
	return QueueStats{
		Elisions:      q.elisions.Load(),
		Publications:  q.publications.Load(),
		LockContended: q.lock.Contended(),
	}
}

// LockForTest acquires the queue's lock without performing an operation and
// reports whether it succeeded. Failure-injection tests use it to simulate a
// thread that crashed while holding the lock — the liveness hazard of
// lock-based MultiQueues that the try-operations are designed to route
// around.
func (q *Queue) LockForTest() bool { return q.lock.TryLock() }

// UnlockForTest releases a lock taken with LockForTest.
func (q *Queue) UnlockForTest() { q.lock.Unlock() }
