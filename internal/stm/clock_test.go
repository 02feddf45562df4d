package stm

import (
	"strings"
	"testing"
)

func TestClockNames(t *testing.T) {
	names := map[string]Clock{
		"tl2-faa":          NewFAAClock(),
		"tl2-multicounter": NewMCClock(8, 64),
	}
	for want, c := range names {
		if c.Name() != want {
			t.Fatalf("Name() = %q, want %q", c.Name(), want)
		}
	}
}

func TestMCClockAccessors(t *testing.T) {
	c := NewMCClock(16, 128)
	if c.Delta() != 128 {
		t.Fatalf("Delta = %d", c.Delta())
	}
	c.mc.Snapshot(make([]uint64, 16)) // panics unless the counter has 16 cells
}

func TestMCClockPanicsOnZeroDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMCClock(8, 0) did not panic")
		}
	}()
	NewMCClock(8, 0)
}

func TestFAAHelpIsNoop(t *testing.T) {
	c := NewFAAClock()
	h := c.NewHandle(0)
	h.Help()
	if h.Sample() != 0 {
		t.Fatal("FAA Help advanced the clock")
	}
}

func TestMCClockHelpAdvances(t *testing.T) {
	c := NewMCClock(4, 16)
	h := c.NewHandle(1)
	for i := 0; i < 400; i++ {
		h.Help()
	}
	if c.mc.Exact() != 400 {
		t.Fatalf("helps applied %d increments, want 400", c.mc.Exact())
	}
	// CommitVersion ticks once more and stamps tmax + Δ.
	if wv := h.CommitVersion(50); wv != 66 {
		t.Fatalf("CommitVersion = %d, want 66", wv)
	}
	if c.mc.Exact() != 401 {
		t.Fatalf("commit tick missing: %d", c.mc.Exact())
	}
}

func TestArrayAccessors(t *testing.T) {
	arr := NewArray(4)
	if len(arr.vals) != 4 {
		t.Fatalf("slots = %d", len(arr.vals))
	}
	if arr.MaxVersion() != 0 {
		t.Fatalf("fresh MaxVersion = %d", arr.MaxVersion())
	}
	tx := NewTx(arr, NewMCClock(4, 7).NewHandle(0), 1)
	if err := tx.Run(func(tx *Tx) error { tx.Store(2, 5); return nil }); err != nil {
		t.Fatal(err)
	}
	// The written slot's version is tmax(=0) + Δ(=7).
	if arr.MaxVersion() != 7 {
		t.Fatalf("MaxVersion = %d, want 7", arr.MaxVersion())
	}
}

func TestNewArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray(0) did not panic")
		}
	}()
	NewArray(0)
}

func TestTryLockFailsOnChangedWord(t *testing.T) {
	var l vlock
	stale := l.load()
	l.unlockTo(5) // word changes
	if l.tryLock(stale) {
		t.Fatal("tryLock succeeded with a stale observation")
	}
	cur := l.load()
	if !l.tryLock(cur) {
		t.Fatal("tryLock failed with a fresh observation")
	}
	if l.tryLock(cur | 1) {
		t.Fatal("tryLock succeeded on a locked word")
	}
}

func TestWorkloadResultString(t *testing.T) {
	res := WorkloadResult{Commits: 10, Aborts: 2, Mops: 1.5, Verified: true}
	s := res.String()
	for _, want := range []string{"commits=10", "aborts=2", "verified=true"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
