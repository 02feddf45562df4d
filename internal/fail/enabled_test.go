//go:build dlzfail

package fail

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestErrorPolicyFiresAndCounts(t *testing.T) {
	Reset()
	const site = "test/error"
	if err := Inject(site); err != nil {
		t.Fatalf("disarmed site injected: %v", err)
	}
	Arm(site, Policy{Kind: KindError})
	for i := 0; i < 5; i++ {
		if err := Inject(site); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: err = %v, want ErrInjected", i, err)
		}
	}
	if got := Hits(site); got != 6 {
		t.Errorf("Hits = %d, want 6 (1 disarmed + 5 armed)", got)
	}
	if got := Fires(site); got != 5 {
		t.Errorf("Fires = %d, want 5", got)
	}
	Disarm(site)
	if err := Inject(site); err != nil {
		t.Errorf("disarmed site injected: %v", err)
	}
}

func TestScheduleGates(t *testing.T) {
	Reset()
	const site = "test/gates"
	// After skips the first 2 hits; Count caps at 3 fires; Every 2 fires on
	// every second eligible hit.
	Arm(site, Policy{Kind: KindError, After: 2, Every: 2, Count: 3})
	var fired []int
	for i := 0; i < 16; i++ {
		if Inject(site) != nil {
			fired = append(fired, i)
		}
	}
	// Eligible hits are 2,3,4,...; (seen-After)%Every==0 fires on seen=4,6,8
	// (0-indexed hits 3,5,7), capped at 3 fires.
	want := []int{3, 5, 7}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}

func TestProbDeterministicUnderSeed(t *testing.T) {
	const site = "test/prob"
	pattern := func(seed uint64) []bool {
		Reset()
		SetSeed(seed)
		Arm(site, Policy{Kind: KindError, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = Inject(site) != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Errorf("Prob 0.5 fired %d/%d times — schedule not probabilistic", fires, len(a))
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
	Reset()
}

func TestPanicPolicyIsIdentifiable(t *testing.T) {
	Reset()
	const site = "test/panic"
	Arm(site, Policy{Kind: KindPanic, Count: 1})
	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("panic policy did not panic")
			}
			from, ok := IsInjectedPanic(rec)
			if !ok || from != site {
				t.Fatalf("IsInjectedPanic(%v) = %q, %v", rec, from, ok)
			}
		}()
		_ = Inject(site)
	}()
	// Count exhausted: further hits are clean.
	if err := Inject(site); err != nil {
		t.Errorf("count-exhausted site injected: %v", err)
	}
	if _, ok := IsInjectedPanic(errors.New("other")); ok {
		t.Error("IsInjectedPanic accepted a non-failpoint value")
	}
}

func TestDelayPolicySleeps(t *testing.T) {
	Reset()
	const site = "test/delay"
	Arm(site, Policy{Kind: KindDelay, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := Inject(site); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("delay slept %v, want >= 20ms", d)
	}
}

func TestStallBlocksUntilRelease(t *testing.T) {
	Reset()
	const site = "test/stall"
	Arm(site, Policy{Kind: KindStall, Count: 1})
	entered := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(entered)
		_ = Inject(site)
		close(done)
	}()
	<-entered
	select {
	case <-done:
		t.Fatal("stall did not block")
	case <-time.After(30 * time.Millisecond):
	}
	Release(site)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Release did not unblock the stalled goroutine")
	}
	// Count 1 exhausted: the site no longer stalls.
	if err := Inject(site); err != nil {
		t.Errorf("stall-once site re-fired: %v", err)
	}
}

func TestResetReleasesStalls(t *testing.T) {
	Reset()
	const site = "test/stall-reset"
	Arm(site, Policy{Kind: KindStall})
	done := make(chan struct{})
	go func() {
		_ = Inject(site)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	Reset()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Reset did not release the stalled goroutine")
	}
	if got := Hits(site); got != 0 {
		t.Errorf("Hits after Reset = %d, want 0", got)
	}
}

func TestConcurrentInjectIsSafe(t *testing.T) {
	Reset()
	const site = "test/concurrent"
	Arm(site, Policy{Kind: KindError, Prob: 0.5})
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = Inject(site)
			}
		}()
	}
	wg.Wait()
	if got := Hits(site); got != workers*per {
		t.Errorf("Hits = %d, want %d", got, workers*per)
	}
	Reset()
}
