package cpq

import (
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/heap"
	"repro/internal/rng"
)

// driveTopCache runs a byte-decoded operation stream over one queue and
// checks the decoded top word against a sorted-slice model after every
// operation: the word must be stable (this driver is single-threaded, so a
// surviving mid-update sentinel is a protocol bug), its empty bit must match
// the model, its minimum must be the model's minimum reduced to TopPrioMask,
// and its sequence must have advanced by exactly 2 per word-changing
// critical section and 0 otherwise — pinning both halves of the publication
// protocol: the Begin/Publish pair where the word can change, and the
// elision rule (covered inserts, deletes on a published-empty queue) where
// it cannot. Priorities mix small values with values above 2^TopPrioBits so
// the truncation path and the full-resolution covered check are both
// exercised. Ops 0, 1 and 5 are one-item AddBatch/TryAddBatch calls, which
// take addLocked's single Push and publish the pushed item without a Peek;
// the model checks that publish too.
func driveTopCache(t *testing.T, data []byte) {
	t.Helper()
	q := newQueue(4)
	r := rng.NewXoshiro256(uint64(len(data)) + 5)
	var ref []uint64
	pushRef := func(p uint64) {
		i := sort.Search(len(ref), func(i int) bool { return ref[i] >= p })
		ref = append(ref, 0)
		copy(ref[i+1:], ref[i:])
		ref[i] = p
	}
	prio := func(op byte) uint64 {
		p := r.Uint64n(512)
		if op&0x40 != 0 {
			// High bits beyond the word's priority field: published
			// minima must come back reduced to TopPrioMask.
			p |= r.Next() << TopPrioBits
		}
		return p
	}
	var seq uint64
	// addPublishes models the insert-side elision: a publication happens
	// only when the insert's minimum undercuts the modeled minimum or the
	// queue was empty (full-resolution comparison, like topCovers).
	addPublishes := func(insMin uint64) {
		if len(ref) == 0 || insMin < ref[0] {
			seq += 2
		}
	}
	// delPublishes models the delete side: any drain attempt on a non-empty
	// queue removes the minimum and republishes; a published-empty queue
	// elides the whole pair.
	delPublishes := func() {
		if len(ref) > 0 {
			seq += 2
		}
	}
	var batch []heap.Item
	for opIdx, op := range data {
		switch op % 7 {
		case 0, 1:
			p := prio(op)
			addPublishes(p)
			addOne(q, p, r.Next())
			pushRef(p)
		case 2:
			delPublishes()
			it, ok := deleteOne(q)
			if ok != (len(ref) > 0) {
				t.Fatalf("op %d DeleteMinUpTo(1) ok=%v with %d modeled", opIdx, ok, len(ref))
			}
			if ok {
				if it.Priority != ref[0] {
					t.Fatalf("op %d DeleteMinUpTo(1) = %d, want %d", opIdx, it.Priority, ref[0])
				}
				ref = ref[1:]
			}
		case 3:
			k := int(op / 7 % 9)
			batch = batch[:0]
			for i := 0; i < k; i++ {
				p := prio(op + byte(i))
				batch = append(batch, heap.Item{Priority: p, Value: r.Next()})
			}
			if k > 0 {
				bmin := batch[0].Priority
				for _, it := range batch[1:] {
					if it.Priority < bmin {
						bmin = it.Priority
					}
				}
				addPublishes(bmin)
			}
			q.AddBatch(batch)
			for _, it := range batch {
				pushRef(it.Priority)
			}
		case 4:
			k := int(op / 7 % 9)
			if k > 0 {
				delPublishes()
			}
			got := q.DeleteMinUpTo(k, batch[:0])
			batch = got[:0]
			for i, it := range got {
				if it.Priority != ref[i] {
					t.Fatalf("op %d DeleteMinUpTo[%d] = %d, want %d", opIdx, i, it.Priority, ref[i])
				}
			}
			ref = ref[len(got):]
		case 5:
			p := prio(op)
			addPublishes(p)
			if !tryAddOne(q, p, r.Next()) {
				t.Fatalf("op %d one-item TryAddBatch refused without contention", opIdx)
			}
			pushRef(p)
		case 6:
			delPublishes()
			it, ok, acquired := tryDeleteOne(q)
			if !acquired {
				t.Fatalf("op %d TryDeleteMinUpTo(1) refused without contention", opIdx)
			}
			if ok {
				if it.Priority != ref[0] {
					t.Fatalf("op %d TryDeleteMinUpTo(1) = %d, want %d", opIdx, it.Priority, ref[0])
				}
				ref = ref[1:]
			}
		}
		w := q.ReadTop()
		if w.InFlight() {
			t.Fatalf("op %d word still mid-update at quiescence", opIdx)
		}
		if w.Empty() != (len(ref) == 0) {
			t.Fatalf("op %d empty bit %v with %d modeled items", opIdx, w.Empty(), len(ref))
		}
		wantMin := uint64(emptyTop)
		if len(ref) > 0 {
			wantMin = ref[0] & TopPrioMask
		}
		if w.minPrio() != wantMin {
			t.Fatalf("op %d cached min %d, want %d", opIdx, w.minPrio(), wantMin)
		}
		if wantSeq := seq % (topSeqMask + 1); w.Seq() != wantSeq {
			t.Fatalf("op %d seq %d, want %d (mutating sections must advance it by exactly 2)", opIdx, w.Seq(), wantSeq)
		}
		if len(ref) > 0 && w.Key() != ref[0]&TopPrioMask {
			t.Fatalf("op %d key %d, want %d", opIdx, w.Key(), ref[0]&TopPrioMask)
		}
		if len(ref) == 0 && w.Key() != TopKeyEmpty {
			t.Fatalf("op %d key %d on empty, want TopKeyEmpty", opIdx, w.Key())
		}
	}
}

// TestTopWordTracksModelAllBackings is the property-test complement of the
// fuzz target: long pseudo-random streams, so the word's publication protocol
// is pinned beyond the fuzzer's seed corpus.
func TestTopWordTracksModelAllBackings(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		r := rng.NewXoshiro256(1)
		for round := 0; round < 10; round++ {
			data := make([]byte, 300)
			for i := range data {
				data[i] = byte(r.Next())
			}
			driveTopCache(t, data)
		}
	})
}

// FuzzTopCacheDifferential is the coverage-guided entry point over the same
// driver; its seed corpus runs on every plain `go test`, and the CI fuzz
// smoke step explores further on every push.
func FuzzTopCacheDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{3, 10, 4, 66, 2, 2, 0x41, 0x80, 255, 254})
	seed := make([]byte, 128)
	for i := range seed {
		seed[i] = byte(i * 11)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		driveTopCache(t, data)
	})
}

// TestTopWordCoherenceUnderRace is the interloper test of the top-word
// publication protocol: writers churn a queue while maintaining a rising
// watermark (the largest priority already removed — every live element is
// strictly greater, because inserts are drawn from a monotone counter and
// removals take minima; addMu makes drawing a stamp and inserting it one step,
// or a writer descheduled between the two would insert below the watermark
// and the check would misfire). Readers repeatedly snapshot the watermark and then
// load the word: a stable word observed after the lock's release must never
// carry a minimum at or below the snapshot — the "reader never observes a
// value smaller than the true minimum" guarantee the seqlock parity plus
// publish-before-unlock ordering provides. Mid-update words are exempt:
// they advertise their staleness via the sentinel. Run under -race in CI.
func TestTopWordCoherenceUnderRace(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		q := newQueue(1024)
		var next, watermark atomic.Uint64
		var addMu sync.Mutex
		// Standing buffer so the queue never empties mid-run (the
		// writers add two per removal).
		for i := 0; i < 64; i++ {
			addOne(q, next.Add(1), 0)
		}

		const writers, readers, rounds = 2, 2, 4000
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(writers)
		for w := 0; w < writers; w++ {
			go func(w int) {
				defer wg.Done()
				buf := make([]heap.Item, 0, 2)
				for i := 0; i < rounds; i++ {
					addMu.Lock()
					if i%2 == 0 {
						addOne(q, next.Add(1), 0)
						addOne(q, next.Add(1), 0)
					} else {
						buf = append(buf[:0],
							heap.Item{Priority: next.Add(1)},
							heap.Item{Priority: next.Add(1)})
						q.AddBatch(buf)
					}
					addMu.Unlock()
					it, ok := deleteOne(q)
					if !ok {
						t.Error("queue emptied despite standing buffer")
						return
					}
					// CAS-max: publish the removal only after the delete
					// returned, so the watermark invariant holds from the
					// reader's point of view.
					for {
						cur := watermark.Load()
						if it.Priority <= cur || watermark.CompareAndSwap(cur, it.Priority) {
							break
						}
					}
				}
			}(w)
		}

		var readerWG sync.WaitGroup
		readerWG.Add(readers)
		for rd := 0; rd < readers; rd++ {
			go func() {
				defer readerWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					wm := watermark.Load()
					w := q.ReadTop()
					if w.InFlight() {
						continue // advertised stale; nothing to assert
					}
					if w.Empty() {
						t.Error("stable-empty word on a never-empty queue")
						return
					}
					if w.minPrio() <= wm&TopPrioMask {
						t.Errorf("stable word min %d not above watermark %d", w.minPrio(), wm)
						return
					}
				}
			}()
		}

		wg.Wait()
		close(stop)
		readerWG.Wait()

		// Quiescence: the word equals the minimum of a locked AppendTo
		// exactly.
		w := q.ReadTop()
		it, ok := minOf(q.AppendTo(nil))
		if !ok || w.InFlight() || w.Empty() || w.minPrio() != it.Priority&TopPrioMask {
			t.Fatalf("quiescent word (min %d, empty %v, inflight %v) != true min %d",
				w.minPrio(), w.Empty(), w.InFlight(), it.Priority)
		}
	})
}

// TestReadTopInlines asks the compiler whether ReadTop still fits the
// inliner's budget. It is the one load the MultiQueue's d-choice loop makes
// per candidate; a branch that pushes it back over the budget costs every
// candidate a call, and nothing else would notice.
func TestReadTopInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	if want := "can inline (*Queue).ReadTop"; !strings.Contains(string(out), want+"\n") {
		t.Errorf("compiler no longer reports %q", want)
	}
}
