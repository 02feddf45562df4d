package pad

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// Seq returns the current sequence number. It advances by exactly 2 per
// Begin/Publish pair (modulo 2^SeqBits), so it counts mutations; an odd
// value means a writer is mid-update.
func (s *Seq64) Seq() uint64 { return s.w.Load() & seqMask }

// load returns the payload and whether the word is mid-update (the sequence
// is odd), from one atomic load of the word.
func (s *Seq64) load() (payload uint64, inflight bool) {
	w := s.w.Load()
	return w >> SeqBits, w&1 == 1
}

// Locked reports whether the lock is currently held (racy).
func (l *SpinLock) Locked() bool { return l.state.Load() != 0 }

func TestPaddedSizes(t *testing.T) {
	if s := unsafe.Sizeof(Uint64{}); s != CacheLine {
		t.Fatalf("Uint64 size %d, want %d", s, CacheLine)
	}
	// The shard that holds these two pads them; bare, they are a 4-byte
	// state word beside an 8-byte counter, and one 8-byte word.
	if s := unsafe.Sizeof(SpinLock{}); s != 16 {
		t.Fatalf("SpinLock size %d, want 16", s)
	}
	if s := unsafe.Sizeof(Seq64{}); s != 8 {
		t.Fatalf("Seq64 size %d, want 8", s)
	}
}

func TestUint64Ops(t *testing.T) {
	var u Uint64
	if u.Load() != 0 {
		t.Fatal("zero value not 0")
	}
	u.v.Store(5)
	if u.Load() != 5 {
		t.Fatal("Store/Load mismatch")
	}
	if u.Add(3) != 8 {
		t.Fatal("Add result wrong")
	}
	if !u.v.CompareAndSwap(8, 10) || u.Load() != 10 {
		t.Fatal("CAS should succeed")
	}
	if u.v.CompareAndSwap(8, 11) {
		t.Fatal("CAS with stale old should fail")
	}
}

func TestUint64ConcurrentAdd(t *testing.T) {
	var u Uint64
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u.Add(1)
			}
		}()
	}
	wg.Wait()
	if u.Load() != workers*perWorker {
		t.Fatalf("lost updates: %d != %d", u.Load(), workers*perWorker)
	}
}

func TestSeq64Protocol(t *testing.T) {
	var s Seq64
	if p, inflight := s.load(); p != 0 || inflight {
		t.Fatalf("zero value = (%d, %v), want stable 0", p, inflight)
	}
	s.Init(42)
	if p, inflight := s.load(); p != 42 || inflight {
		t.Fatalf("after Init = (%d, %v), want stable 42", p, inflight)
	}
	if s.Seq() != 0 {
		t.Fatalf("Init left seq %d, want 0", s.Seq())
	}
	s.Begin()
	if p, inflight := s.load(); p != 42 || !inflight {
		t.Fatalf("after Begin = (%d, %v), want in-flight 42 (stale payload retained)", p, inflight)
	}
	s.Begin() // double Begin is harmless: still mid-update, payload intact
	if p, inflight := s.load(); p != 42 || !inflight {
		t.Fatalf("after double Begin = (%d, %v)", p, inflight)
	}
	s.Publish(7)
	if p, inflight := s.load(); p != 7 || inflight {
		t.Fatalf("after Publish = (%d, %v), want stable 7", p, inflight)
	}
	if s.Seq() != 2 {
		t.Fatalf("one Begin/Publish pair advanced seq to %d, want 2", s.Seq())
	}
	// Publish without Begin still lands on an even sequence.
	s.Publish(9)
	if p, inflight := s.load(); p != 9 || inflight {
		t.Fatalf("Publish without Begin = (%d, %v), want stable 9", p, inflight)
	}
	if s.Seq() != 4 {
		t.Fatalf("seq = %d, want 4", s.Seq())
	}
}

func TestSeq64PayloadWidthAndWrap(t *testing.T) {
	var s Seq64
	// The full 49-bit payload round-trips.
	max := uint64(1)<<(64-SeqBits) - 1
	s.Publish(max)
	if p, _ := s.load(); p != max {
		t.Fatalf("payload %d round-tripped as %d", max, p)
	}
	// The sequence wraps inside its field without corrupting the payload.
	for i := 0; i < (1<<SeqBits)/2+3; i++ {
		s.Begin()
		s.Publish(max)
	}
	if p, inflight := s.load(); p != max || inflight {
		t.Fatalf("after wrap = (%d, %v), want stable %d", p, inflight, max)
	}
	if s.Seq()&1 != 0 {
		t.Fatalf("wrapped seq %d is odd", s.Seq())
	}
}

// TestSeq64ReadersNeverTear hammers a Seq64 with one writer republishing a
// recognizable payload and many readers: a reader must only ever observe
// published payloads (never a mixture), and an in-flight load must still
// carry the previous payload.
func TestSeq64ReadersNeverTear(t *testing.T) {
	var s Seq64
	const readers = 4
	const rounds = 20000
	s.Init(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, _ := s.load()
				// Payloads are always odd numbers; an even observation is a
				// torn or invented value.
				if p%2 == 0 {
					panic("torn payload")
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		s.Begin()
		s.Publish(uint64(2*i + 3))
	}
	close(stop)
	wg.Wait()
}

func TestSpinLockMutualExclusion(t *testing.T) {
	var l SpinLock
	counter := 0
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Lock()
				counter++ // unsynchronized except for the lock
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*perWorker {
		t.Fatalf("mutual exclusion violated: %d != %d", counter, workers*perWorker)
	}
}

func TestSpinLockTryLock(t *testing.T) {
	var l SpinLock
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	if !l.Locked() {
		t.Fatal("Locked() false while held")
	}
	l.Unlock()
	if l.Locked() {
		t.Fatal("Locked() true after Unlock")
	}
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

func TestSpinLockUnlockPanics(t *testing.T) {
	var l SpinLock
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unlocked SpinLock did not panic")
		}
	}()
	l.Unlock()
}

func TestSpinLockContendedHandoff(t *testing.T) {
	// A held lock keeps Lock in its yielding slow path until the release
	// lets it through.
	var l SpinLock
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		close(done)
	}()
	// Give the waiter time to reach the slow path even on one CPU.
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	l.Unlock()
	<-done
}

func TestSpinLockContendedCounter(t *testing.T) {
	var l SpinLock
	l.Lock()
	l.Unlock()
	if got := l.Contended(); got != 0 {
		t.Fatalf("uncontended acquire must not count: Contended=%d", got)
	}
	if !l.TryLock() {
		t.Fatal("TryLock on a free lock failed")
	}
	done := make(chan struct{})
	go func() {
		l.Lock() // held by the main goroutine: must enter the slow path
		l.Unlock()
		close(done)
	}()
	for l.Contended() == 0 {
		runtime.Gosched()
	}
	l.Unlock()
	<-done
	if got := l.Contended(); got != 1 {
		t.Fatalf("exactly one acquire entered the slow path: Contended=%d", got)
	}
}

func BenchmarkSpinLockUncontended(b *testing.B) {
	var l SpinLock
	for i := 0; i < b.N; i++ {
		l.Lock()
		l.Unlock()
	}
}
