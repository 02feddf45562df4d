package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync/atomic"
)

// Recovered reports what Open found on disk.
type Recovered struct {
	// Snapshot is the newest decodable snapshot, nil if none. Its tenants'
	// Items are nil: recovery moved each array into States, where the
	// journal tail was folded into it in place.
	Snapshot *Snapshot
	// SnapshotCut is Snapshot.CutLSN (0 without a snapshot).
	SnapshotCut uint64
	// States is the recovered per-tenant logical state, sorted by tenant
	// name: the snapshot with every replayed record folded into it.
	States []TenantState
	// Replayed counts the journal records folded on top of the snapshot,
	// all with LSN > SnapshotCut.
	Replayed int
	// Records are deep copies of those records in LSN order. Only Replay
	// fills it; Open keeps nothing proportional to the journal.
	Records []Record
	// Head is the last valid LSN on disk; Open's fresh segment starts at
	// Head+1.
	Head uint64
	// TornBytes counts bytes truncated off segment tails (a partially
	// written final record from a crash mid-append, or trailing garbage).
	TornBytes int64
	// SegmentsDropped counts whole segment files discarded because they sat
	// behind a torn frame or an LSN gap and were therefore unreachable.
	SegmentsDropped int
	// TailBytes is the byte size of the valid journal tail behind the
	// snapshot — the initial bytes-since-snapshot reading.
	TailBytes int64
}

// Progress is how far a running recovery has got, published once per
// segment so another goroutine (dlzd's /readyz and /metrics) can read it
// while OpenWithProgress is still replaying.
type Progress struct {
	// Records counts journal records folded so far.
	Records atomic.Uint64
	// Segments counts segment files scanned so far.
	Segments atomic.Uint64
}

// recoverWindow is the size of the read window recovery streams every
// segment through. It holds hundreds of typical frames; only a frame longer
// than it, a batch close to the wire's cap of 4096 items, grows it. A larger
// window shows in a restarted daemon's peak memory (EXPERIMENTS.md §22).
const recoverWindow = 64 << 10

// recoverDir scans dir and reconstructs the durable state in one pass:
// newest valid snapshot, then the chained segments behind it, each streamed
// through one read window, every record folded into the per-tenant state
// the moment it is decoded, torn-tail detection. With keep unset (Open) it
// repairs as it goes — truncates torn files and removes unreachable
// segments so the directory is left frame-clean — and retains nothing per
// record. With keep set (Replay) it is read-only and also collects a deep
// copy of every replayed record. Corruption is not an error — the scan
// stops at the first invalid frame, exactly like the recovery state machine
// in DESIGN.md §12 — but I/O failures are, and so is a file in another
// on-disk format (errFormat), before any file is touched.
func recoverDir(dir string, keep bool, prog *Progress) (*Recovered, error) {
	segs, snaps, err := listDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return &Recovered{}, nil
		}
		return nil, err
	}

	rec := &Recovered{}
	for i := len(snaps) - 1; i >= 0; i-- { // newest first
		s, err := loadSnapshotFile(snaps[i].path)
		if err == nil {
			rec.Snapshot = s
			rec.SnapshotCut = s.CutLSN
			break
		}
		if errors.Is(err, errFormat) {
			return nil, fmt.Errorf("wal: %s: %w", snaps[i].path, err)
		}
		// An undecodable snapshot (torn write before the rename discipline,
		// bit rot, items out of order) is skipped; an older one or the raw
		// journal still works.
	}
	cut := rec.SnapshotCut
	rec.Head = cut

	// Find the first live segment: the last one starting at or before
	// cut+1. Everything before it holds only snapshotted records.
	start := 0
	for i := range segs {
		if segs[i].seq <= cut+1 {
			start = i
		}
	}

	f := newFold(rec.Snapshot)
	visit := func(r *Record) {
		if r.LSN > cut {
			f.apply(r)
			rec.Replayed++
			rec.TailBytes += int64(frameHeader + payloadLen(r))
			if keep {
				rec.Records = append(rec.Records, r.clone())
			}
		}
		rec.Head = r.LSN
	}
	var sc scanner
	win := make([]byte, recoverWindow) // every segment streams through it
	for i := start; i < len(segs); i++ {
		s := segs[i]
		if s.seq > rec.Head+1 {
			// LSN gap: this segment and everything after it are unreachable
			// from the durable prefix.
			rec.SegmentsDropped += len(segs) - i
			if !keep {
				for _, d := range segs[i:] {
					_ = os.Remove(d.path)
				}
			}
			break
		}
		file, err := os.Open(s.path)
		if err != nil {
			return nil, err
		}
		// The word goes through the window, so checking it allocates
		// nothing. A segment shorter than it is a crash during its creation.
		var good, size int64
		n, err := io.ReadFull(file, win[:len(segWord)])
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF: // empty and torn
			size, err = int64(n), nil
		case err == nil && string(win[:n]) != segWord:
			found := "no format word"
			if string(win[:n-1]) == segWord[:n-1] {
				found = "format " + string(win[:n])
			}
			err = fmt.Errorf("wal: %s: %s, want %s: %w", s.path, found, segWord, errFormat)
		case err == nil:
			good, size, win, err = sc.scanStream(file, win, s.seq, visit)
			good, size = good+int64(n), size+int64(n)
		}
		_ = file.Close() // read-only
		if err != nil {
			return nil, err
		}
		prog.Records.Store(uint64(rec.Replayed))
		prog.Segments.Add(1)
		if good < size {
			// Torn or corrupt frame: truncate it away and drop the
			// unreachable successors.
			rec.TornBytes += size - good
			rec.SegmentsDropped += len(segs) - i - 1
			if !keep {
				if err := os.Truncate(s.path, good); err != nil {
					return nil, err
				}
				for _, d := range segs[i+1:] {
					_ = os.Remove(d.path)
				}
			}
			break
		}
	}
	rec.States = f.states()
	return rec, nil
}

// payloadLen returns the encoded payload size of r without materializing
// the frame (Append's size check, and tail-size accounting during recovery).
func payloadLen(r *Record) int {
	n := 1 + 8 + 1 + min(len(r.Tenant), 255) + 1 + min(len(r.Session), 255)
	switch r.Type {
	case RecEnqueue, RecDeleteMin:
		n += 4 + 16*len(r.Items)
	case RecCounterAdd:
		n += 16
	}
	return n
}

// fold accumulates a snapshot plus journal records into per-tenant logical
// state, one record at a time. It is a pure function of the record
// sequence, so replaying the same journal twice yields identical output —
// the determinism guarantee the recovery tests diff.
//
// A tenant keeps the tail's unmatched elements as two runs in canonical
// (priority, value) order, enqueues (seeded with the snapshot's items) and
// deletes, beside an unsorted delta that its records append to. flush
// cancels the delta against itself and the runs and merges the rest in, so
// a matched pair cancels once both halves have met, as in Lee & Mathur's
// decrease-and-conquer monitor. No element is in both runs: one with S
// snapshot copies, E enqueues and D deletes ends as max(0, S+E−D) queue
// copies and max(0, D−E−S) delete-run copies in any arrival order (integer
// addition commutes, so one pass equals applying all enqueues first). A
// delete-run copy is a delete whose enqueue the crash cut off (append order
// is per record, not per element: a racing session's dequeue can be
// journaled first). Crediting the missing enqueue keeps the ledger exact,
//
//	QueueLen == OpsEnqueued - OpsDequeued
//
// and the element itself is (correctly) absent from the queue.
type fold struct {
	tenants map[string]*tenantFold
}

// deltaFloor is the fewest items a tenant's delta collects before a flush;
// once the runs hold more than four times that, it waits for a quarter of
// them, so that a flush's pass over the runs costs O(1) per delta item.
const deltaFloor = 4096

type tenantFold struct {
	st         TenantState // Items is the enqueue run
	deleted    []Item      // the delete run
	adds, dels []Item      // the delta: items of the records since the last flush
}

// newFold starts a fold from snap. It moves each snapshot tenant's Items
// into the fold as its enqueue run, leaving them nil in snap: the run is
// compacted and grown in place and returned as the tenant's queue.
func newFold(snap *Snapshot) *fold {
	f := &fold{tenants: make(map[string]*tenantFold)}
	if snap != nil {
		for i := range snap.Tenants {
			f.tenant(snap.Tenants[i].Name).st = snap.Tenants[i]
			snap.Tenants[i].Items = nil
		}
	}
	return f
}

func (f *fold) tenant(name string) *tenantFold {
	t := f.tenants[name]
	if t == nil {
		t = &tenantFold{st: TenantState{Name: name}}
		f.tenants[name] = t
	}
	return t
}

// apply folds one record in. It keeps nothing of r but the tenant name,
// an immutable string, so r may be the scanner's scratch record.
func (f *fold) apply(r *Record) {
	t := f.tenant(r.Tenant)
	switch r.Type {
	case RecEnqueue:
		t.adds = append(t.adds, r.Items...)
		t.st.OpsEnqueued += uint64(len(r.Items))
	case RecDeleteMin:
		t.dels = append(t.dels, r.Items...)
		t.st.OpsDequeued += uint64(len(r.Items))
	case RecCounterAdd:
		t.st.OpsCounterAdds += r.Count
		t.st.CounterDeltaSum += r.Weight
		t.st.CounterSum += r.Weight
	}
	if len(t.adds)+len(t.dels) >= max(deltaFloor, (len(t.st.Items)+len(t.deleted))/4) {
		t.flush()
	}
}

// flush sorts the delta, cancels it against itself and the runs, and merges
// what is left into the runs. The delta's arrays are kept for the next one.
func (t *tenantFold) flush() {
	slices.SortFunc(t.adds, Item.Compare)
	slices.SortFunc(t.dels, Item.Compare)
	adds, dels := cancel(t.adds, t.dels)
	t.st.Items, dels = cancel(t.st.Items, dels)
	t.deleted, adds = cancel(t.deleted, adds)
	t.st.Items = merge(t.st.Items, adds)
	t.deleted = merge(t.deleted, dels)
	t.adds, t.dels = t.adds[:0], t.dels[:0]
}

// cancel removes one copy from each of the sorted a and b for every pair of
// equal items they hold, compacting both in place.
func cancel(a, b []Item) ([]Item, []Item) {
	i, j, ka, kb := 0, 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			a[ka], i, ka = a[i], i+1, ka+1
		case c > 0:
			b[kb], j, kb = b[j], j+1, kb+1
		default:
			i, j = i+1, j+1
		}
	}
	ka += copy(a[ka:], a[i:])
	kb += copy(b[kb:], b[j:])
	return a[:ka], b[:kb]
}

// merge merges the sorted b into the sorted a from the back, so a's array,
// grown first if it is too short, is the only one written.
func merge(a, b []Item) []Item {
	i, j := len(a)-1, len(b)-1
	a = slices.Grow(a, len(b))[:len(a)+len(b)]
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i].Compare(b[j]) > 0 {
			a[k], i = a[i], i-1
		} else {
			a[k], j = b[j], j-1
		}
	}
	return a
}

// states finishes the fold: a last flush, then each tenant's enqueue run is
// its queue, already in canonical order, and each item left in its delete
// run is a compensating enqueue credit.
func (f *fold) states() []TenantState {
	out := make([]TenantState, 0, len(f.tenants))
	for _, t := range f.tenants {
		t.flush()
		t.st.OpsEnqueued += uint64(len(t.deleted))
		if len(t.st.Items) == 0 {
			t.st.Items = nil // as for a tenant that never had items: equal states stay DeepEqual
		}
		out = append(out, t.st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Replay re-runs recovery on a directory without repairing it: the
// read-only "replay the same journal twice" probe the determinism tests
// use, and the one caller that gets the replayed records themselves
// (Recovered.Records) beside the states folded from them.
func Replay(dir string) ([]TenantState, *Recovered, error) {
	rec, err := recoverDir(dir, true, new(Progress))
	if err != nil {
		return nil, nil, err
	}
	return rec.States, rec, nil
}
