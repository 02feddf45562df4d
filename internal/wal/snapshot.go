package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// snapWord heads every snapshot file, as segWord heads every segment; its
// last byte is the format version. Frames follow it: per tenant one
// RecTenant header and its items in canonical order in RecEnqueue frames of
// frameItems each, then one RecSnapshotEnd record, with frame LSNs 1, 2, 3,
// … so that the scanner's chain check catches a dropped, repeated or
// spliced frame. The layouts before it (DLZSNAP1 to DLZSNAP3) were one frame
// holding the whole snapshot, with the magic behind the frame header.
const snapWord = "DLZSNAP4"

// TenantState is one tenant's logical durable state: everything needed to
// rebuild its namespace with every handle's buffers flushed.
// Items are sorted by (priority, value) so equal logical states encode
// identically — the determinism tests diff these byte-for-byte.
type TenantState struct {
	Name string
	// Items is the full queue contents, sorted.
	Items []Item
	// CounterSum is the relaxed counter's exact value.
	CounterSum uint64
	// Ledger counters (the conservation contract of DESIGN.md §10).
	OpsEnqueued     uint64
	OpsDequeued     uint64
	OpsCounterAdds  uint64
	CounterDeltaSum uint64
}

// SortItems sorts ts.Items into the canonical (priority, value) order.
func (ts *TenantState) SortItems() { slices.SortFunc(ts.Items, Item.Compare) }

// Snapshot is a point-in-time capture of every tenant at a single cut LSN:
// replaying records with LSN > CutLSN on top of it reproduces the journal
// head state.
type Snapshot struct {
	CutLSN  uint64
	Tenants []TenantState
}

// frameItems is how many items one snapshot frame of the named tenant
// holds: as many as fit recovery's read window, so that reading a snapshot
// never grows it.
func frameItems(tenant string) int {
	return (recoverWindow - frameHeader - payloadLen(&Record{Type: RecEnqueue, Tenant: tenant})) / 16
}

// writeSnapshot writes s to w as a snapshot file, through one buffer the
// size of recovery's window.
func writeSnapshot(w io.Writer, s *Snapshot) error {
	buf := append(make([]byte, 0, recoverWindow), snapWord...)
	var r Record
	var hdr [3]Item
	var err error
	put := func() {
		r.LSN++
		if len(buf)+frameHeader+payloadLen(&r) > cap(buf) {
			if err == nil {
				_, err = w.Write(buf)
			}
			buf = buf[:0]
		}
		buf = appendFrame(buf, &r)
	}
	for i := range s.Tenants {
		t := &s.Tenants[i]
		hdr = [3]Item{{Priority: uint64(len(t.Items)), Value: t.CounterSum},
			{Priority: t.OpsEnqueued, Value: t.OpsDequeued}, {Priority: t.OpsCounterAdds, Value: t.CounterDeltaSum}}
		r.Type, r.Tenant, r.Items = RecTenant, t.Name, hdr[:]
		put()
		r.Type = RecEnqueue
		for items, per := t.Items, frameItems(t.Name); len(items) > 0; items = items[len(r.Items):] {
			r.Items = items[:min(len(items), per)]
			put()
		}
	}
	r.Type, r.Tenant, r.Items = RecSnapshotEnd, "", nil
	r.Count, r.Weight = uint64(len(s.Tenants)), s.CutLSN
	put()
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}

// WriteSnapshot persists s atomically (tmp + rename + directory sync),
// resets the bytes-since-snapshot gauge, and truncates
// segments and snapshots the new snapshot makes dead. The caller guarantees
// s captures all state through s.CutLSN (dlzd's snapshotter quiesces
// mutators, each of which published its handles' buffers before letting go,
// and reads Head() before releasing them).
func (l *Log) WriteSnapshot(s *Snapshot) error {
	final := filepath.Join(l.opt.Dir, snapName(s.CutLSN))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err = writeSnapshot(f, s); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := syncDir(l.opt.Dir); err != nil {
		return err
	}
	l.sinceSnap.Store(0)
	l.truncateObsolete(s.CutLSN)
	return nil
}

// loadSnapshot reads the snapshot file at path through the window win; a
// file in another format fails with errFormat.
func loadSnapshot(path string, win []byte) (*Snapshot, error) {
	f, n, err := openFile(path, snapWord, win)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readSnapshot(f, st.Size(), n, win)
}

// readSnapshot decodes a snapshot file of size bytes from r, whose first n
// bytes, the word, readWord has checked. It accepts only a whole file that
// is the one writeSnapshot makes of what it holds: the word, then frames
// valid up to EOF and naming no session; each tenant's items fill the array
// sized from its header (at most size / 16) in canonical order, since
// recovery folds the journal into them as a sorted run, in frames of
// frameItems each; the end record comes last and counts the tenants.
func readSnapshot(r io.Reader, size int64, n int, win []byte) (*Snapshot, error) {
	var s Snapshot
	ok, ended := n == len(snapWord), false
	take := func(r *Record) bool {
		var t *TenantState
		if len(s.Tenants) > 0 {
			t = &s.Tenants[len(s.Tenants)-1]
		}
		switch short := t != nil && len(t.Items) < cap(t.Items); {
		case ended || r.Session != "" || short != (r.Type == RecEnqueue):
			return false
		case r.Type == RecTenant && len(r.Items) == 3 && r.Items[0].Priority <= uint64(size)/16:
			h := r.Items
			s.Tenants = append(s.Tenants, TenantState{Name: r.Tenant, Items: make([]Item, 0, h[0].Priority), CounterSum: h[0].Value,
				OpsEnqueued: h[1].Priority, OpsDequeued: h[1].Value, OpsCounterAdds: h[2].Priority, CounterDeltaSum: h[2].Value})
		case r.Type == RecEnqueue && r.Tenant == t.Name && len(r.Items) == min(cap(t.Items)-len(t.Items), frameItems(t.Name)):
			for _, it := range r.Items {
				if len(t.Items) > 0 && it.Compare(t.Items[len(t.Items)-1]) < 0 {
					return false
				}
				t.Items = append(t.Items, it)
			}
		case r.Type == RecSnapshotEnd && r.Tenant == "" && r.Count == uint64(len(s.Tenants)):
			s.CutLSN, ended = r.Weight, true
		default:
			return false
		}
		return true
	}
	sc := scanner{snapshot: true}
	good, read, _, err := sc.scanStream(r, win, 1, func(r *Record) { ok = ok && take(r) })
	if err == nil && !(ok && ended && good == read) {
		err = errors.New("wal: snapshot is torn or corrupt")
	}
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// truncateObsolete removes segments whose every record is at or before cut
// (the active segment is always kept) and snapshots older than cut. Removal
// failures are ignored: a leftover dead file is re-derived as dead on the
// next recovery.
func (l *Log) truncateObsolete(cut uint64) {
	segs, snaps, err := listDir(l.opt.Dir)
	if err != nil {
		return
	}
	l.mu.Lock()
	active := filepath.Join(l.opt.Dir, l.segName)
	l.mu.Unlock()
	for _, sn := range snaps {
		if sn.seq < cut {
			_ = os.Remove(sn.path)
		}
	}
	// A segment is dead when its successor starts at or before cut+1: every
	// record it holds is then ≤ cut and covered by the snapshot.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].seq <= cut+1 && segs[i].path != active {
			_ = os.Remove(segs[i].path)
		}
	}
}
