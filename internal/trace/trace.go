// Package trace records concurrent operation histories so that internal/dlin
// can map them onto relaxed sequential executions (Section 5's witness
// mapping).
//
// Each worker owns a ThreadLog and records one Event per completed operation
// with three stamps drawn from a shared atomic tick clock: Start (operation
// invocation), Lin (the operation's candidate linearization point, taken
// adjacent to its atomic step), and End (response). Per-thread logs avoid
// synchronization on the recording path beyond the stamp fetches themselves;
// Merge interleaves them afterwards.
//
// The stamp clock serializes recording runs through one cache line, which
// perturbs timing. That is acceptable — and unavoidable: as the paper notes
// for its own quality experiments, "recording quality accurately in a
// concurrent execution appears complicated, as it is not clear how to order
// the concurrent read steps". The stamps make the ordering decision explicit
// and auditable instead of implicit.
package trace

import (
	"sort"

	"repro/internal/pad"
)

// Kind identifies the recorded operation.
type Kind uint8

// Operation kinds recorded by the experiments.
const (
	// KindInc is a counter increment.
	KindInc Kind = iota
	// KindRead is a counter read; Ret holds the returned (scaled) value.
	KindRead
	// KindEnq is a queue enqueue; Arg holds the element label.
	KindEnq
	// KindDeq is a queue dequeue; Ret holds the removed label, OK whether an
	// element was found.
	KindDeq
)

// Event is one completed operation.
type Event struct {
	Start uint64 // invocation stamp
	Lin   uint64 // candidate linearization stamp, Start <= Lin <= End
	End   uint64 // response stamp
	Arg   uint64 // input value (enqueue label)
	Ret   uint64 // output value (read result, dequeued label)
	Th    int32  // recording thread
	Kind  Kind
	OK    bool // operation found a value (dequeue on non-empty)
}

// Recorder owns the stamp clock and the per-thread logs.
type Recorder struct {
	stamps *pad.Uint64 // allocated apart, on its own line
	logs   []ThreadLog
}

// NewRecorder returns a recorder for the given number of threads, with each
// thread log preallocated to capacity events.
func NewRecorder(threads, capacity int) *Recorder {
	r := &Recorder{stamps: new(pad.Uint64), logs: make([]ThreadLog, threads)}
	for i := range r.logs {
		r.logs[i] = ThreadLog{id: int32(i), events: make([]Event, 0, capacity)}
	}
	return r
}

// Stamp returns the next global stamp.
func (r *Recorder) Stamp() uint64 { return r.stamps.Add(1) }

// Log returns thread t's log. Each ThreadLog must be used by one goroutine.
func (r *Recorder) Log(t int) *ThreadLog { return &r.logs[t] }

// Merge returns all events from all threads ordered by Lin stamp. Call only
// after all recording goroutines have finished.
func (r *Recorder) Merge() []Event {
	total := 0
	for i := range r.logs {
		total += len(r.logs[i].events)
	}
	out := make([]Event, 0, total)
	for i := range r.logs {
		out = append(out, r.logs[i].events...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Lin < out[b].Lin })
	return out
}

// ThreadLog is a single goroutine's event buffer.
type ThreadLog struct {
	id     int32
	events []Event
}

// Record appends a completed event, filling in the thread id.
func (l *ThreadLog) Record(ev Event) {
	ev.Th = l.id
	l.events = append(l.events, ev)
}
