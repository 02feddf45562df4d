package wal

import (
	"os"
	"path/filepath"
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
// copy of every replayed record. Corruption is never an error — the scan
// stops at the first invalid frame, exactly like the recovery state machine
// in DESIGN.md §12. Only I/O failures return errors.
func recoverDir(dir string, keep bool, prog *Progress) (*Recovered, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return &Recovered{}, nil
		}
		return nil, err
	}

	type seg struct {
		first uint64
		path  string
	}
	var segs []seg
	var snaps []seg // first = cut LSN
	for _, e := range entries {
		name := e.Name()
		if first, ok := parseSeq(name, "wal-", ".seg"); ok {
			segs = append(segs, seg{first, filepath.Join(dir, name)})
		} else if cut, ok := parseSeq(name, "snap-", ".snap"); ok {
			snaps = append(snaps, seg{cut, filepath.Join(dir, name)})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].first > snaps[j].first })

	rec := &Recovered{}
	for _, sn := range snaps {
		if s, err := loadSnapshotFile(sn.path); err == nil {
			rec.Snapshot = s
			rec.SnapshotCut = s.CutLSN
			break
		}
		// An undecodable snapshot (torn write before the rename discipline,
		// bit rot) is skipped; an older one or the raw journal still works.
	}
	cut := rec.SnapshotCut
	rec.Head = cut

	// Find the first live segment: the last one starting at or before
	// cut+1. Everything before it holds only snapshotted records.
	start := 0
	for i := range segs {
		if segs[i].first <= cut+1 {
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
		if s.first > rec.Head+1 {
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
		var good, size int64
		good, size, win, err = sc.scanStream(file, win, s.first, visit)
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
	n := 1 + 8 + 1 + min255(len(r.Tenant)) + 1 + min255(len(r.Session))
	switch r.Type {
	case RecEnqueue, RecDeleteMin:
		n += 4 + 16*len(r.Items) + 8
	case RecCounterAdd:
		n += 24
	}
	return n
}

func min255(n int) int {
	if n > 255 {
		return 255
	}
	return n
}

// fold accumulates a snapshot plus journal records into per-tenant logical
// state, one record at a time. It is a pure function of the record
// sequence, so replaying the same journal twice yields identical output —
// the determinism guarantee the recovery tests diff.
//
// The journal tail's queue contents are a signed multiset per tenant: an
// enqueued element counts +1, a delivered one −1, and an entry that returns
// to zero leaves the map, so what is resident is the tail's unmatched
// elements, not every element the journal ever mentioned. A count may go
// negative: a delete whose element has no matching enqueue yet (the element
// was enqueued and dequeued by racing sessions and the dequeue record was
// appended first — append order is per-record, not per-element), or a delete
// of an element the snapshot holds. If the enqueue follows, the pair cancels
// then. The snapshot's elements stay in their tenant's Items slice, out of
// the map, and meet the negative entries once, in states: each snapshot copy
// of an element is dropped while its count is negative, and the count rises
// by one. What is still negative after that is a delete whose enqueue the
// crash cut off; it is compensated by crediting the missing enqueue, so the
// recovered ledger still satisfies
//
//	QueueLen == OpsEnqueued - OpsDequeued
//
// exactly, and the element itself is (correctly) absent from the queue.
// With S snapshot copies, E enqueues and D deletes of one element, the queue
// gets max(0, S+E−D) copies and the ledger max(0, D−E−S) credits whatever
// order they arrive in, which is why one pass equals applying all enqueues
// first.
type fold struct {
	tenants map[string]*tenantFold
}

type tenantFold struct {
	st  TenantState    // Items holds the snapshot's copies until states
	net map[Item]int64 // the tail's signed multiset; no entry is ever zero
}

// newFold starts a fold from snap. It moves each snapshot tenant's Items
// into the fold, leaving them nil in snap: states compacts that array in
// place and returns it as the tenant's queue.
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
		t = &tenantFold{st: TenantState{Name: name}, net: make(map[Item]int64)}
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
		for _, it := range r.Items {
			t.add(it, 1)
		}
		t.st.OpsEnqueued += uint64(len(r.Items))
		t.st.OpsMetered += r.Metered
	case RecDeleteMin:
		for _, it := range r.Items {
			t.add(it, -1)
		}
		t.st.OpsDequeued += uint64(len(r.Items))
		t.st.OpsMetered += r.Metered
	case RecCounterAdd:
		t.st.OpsCounterAdds += r.Count
		t.st.CounterDeltaSum += r.Weight
		t.st.CounterSum += r.Weight
		t.st.OpsMetered += r.Metered
	}
}

func (t *tenantFold) add(it Item, d int64) {
	if n := t.net[it] + d; n == 0 {
		delete(t.net, it)
	} else {
		t.net[it] = n
	}
}

// states finishes the fold: negative entries first cancel snapshot copies,
// then positive entries join the queue's items in canonical order and
// negative ones become the compensating enqueue credits. Each tenant's
// multiset is released as soon as it has been read out.
func (f *fold) states() []TenantState {
	out := make([]TenantState, 0, len(f.tenants))
	for _, t := range f.tenants {
		items := t.st.Items
		if len(t.net) > 0 {
			kept := items[:0]
			for _, it := range items {
				if t.net[it] < 0 {
					t.add(it, 1)
				} else {
					kept = append(kept, it)
				}
			}
			items = kept
		}
		live := 0
		for _, n := range t.net {
			if n > 0 {
				live += int(n)
			}
		}
		if len(items)+live > cap(items) {
			items = append(make([]Item, 0, len(items)+live), items...)
		}
		for it, n := range t.net {
			for ; n > 0; n-- {
				items = append(items, it)
			}
			if n < 0 {
				t.st.OpsEnqueued += uint64(-n)
			}
		}
		if len(items) == 0 {
			items = nil // as for a tenant that never had items: equal states stay DeepEqual
		}
		t.st.Items = items
		t.net = nil
		t.st.SortItems()
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
