package wal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// snapMagic heads every snapshot payload so a stray file can never be
// mistaken for one.
var snapMagic = []byte("DLZSNAP1")

// maxSnapTenants bounds the decoded tenant count (dlzd caps namespaces far
// below this); maxSnapItems bounds one tenant's element count to keep a
// corrupt snapshot from driving a huge allocation before its CRC would
// have failed anyway.
const (
	maxSnapTenants = 1 << 16
	maxSnapItems   = 1 << 28
)

// TenantState is one tenant's logical durable state: everything needed to
// rebuild its namespace as if every lease had been flushed and closed.
// Items are sorted by (priority, value) so equal logical states encode
// identically — the determinism tests diff these byte-for-byte.
type TenantState struct {
	Name string
	// M is the shard count to restore (0 = server default, never resized).
	M int
	// Items is the full queue contents, sorted.
	Items []Item
	// CounterSum is the relaxed counter's exact value.
	CounterSum uint64
	// Ledger counters (the conservation contract of DESIGN.md §10).
	OpsEnqueued     uint64
	OpsDequeued     uint64
	OpsCounterAdds  uint64
	CounterDeltaSum uint64
	OpsMetered      uint64
}

// SortItems sorts ts.Items into the canonical (priority, value) order.
func (ts *TenantState) SortItems() {
	slices.SortFunc(ts.Items, func(a, b Item) int {
		if c := cmp.Compare(a.Priority, b.Priority); c != 0 {
			return c
		}
		return cmp.Compare(a.Value, b.Value)
	})
}

// Snapshot is a point-in-time capture of every tenant at a single cut LSN:
// replaying records with LSN > CutLSN on top of it reproduces the journal
// head state.
type Snapshot struct {
	CutLSN  uint64
	Tenants []TenantState
}

func encodeSnapshot(s *Snapshot) []byte {
	p := append([]byte(nil), snapMagic...)
	p = binary.LittleEndian.AppendUint64(p, s.CutLSN)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s.Tenants)))
	for i := range s.Tenants {
		t := &s.Tenants[i]
		p = appendShortString(p, t.Name)
		p = binary.LittleEndian.AppendUint32(p, uint32(t.M))
		p = binary.LittleEndian.AppendUint64(p, t.CounterSum)
		p = binary.LittleEndian.AppendUint64(p, t.OpsEnqueued)
		p = binary.LittleEndian.AppendUint64(p, t.OpsDequeued)
		p = binary.LittleEndian.AppendUint64(p, t.OpsCounterAdds)
		p = binary.LittleEndian.AppendUint64(p, t.CounterDeltaSum)
		p = binary.LittleEndian.AppendUint64(p, t.OpsMetered)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(t.Items)))
		for _, it := range t.Items {
			p = binary.LittleEndian.AppendUint64(p, it.Priority)
			p = binary.LittleEndian.AppendUint64(p, it.Value)
		}
	}
	return p
}

// DecodeSnapshot parses a snapshot payload (strict, like the record codec:
// trailing bytes are an error). It never panics on arbitrary input.
func DecodeSnapshot(p []byte) (*Snapshot, error) {
	if len(p) < len(snapMagic)+12 || string(p[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("wal: not a snapshot payload")
	}
	p = p[len(snapMagic):]
	s := &Snapshot{CutLSN: binary.LittleEndian.Uint64(p)}
	n := binary.LittleEndian.Uint32(p[8:])
	p = p[12:]
	if n > maxSnapTenants {
		return nil, fmt.Errorf("wal: snapshot tenant count %d exceeds cap", n)
	}
	for i := uint32(0); i < n; i++ {
		var t TenantState
		var err error
		if t.Name, p, err = cutShortString(p, ""); err != nil {
			return nil, fmt.Errorf("wal: snapshot tenant name: %w", err)
		}
		if len(p) < 4+6*8+4 {
			return nil, fmt.Errorf("wal: snapshot tenant %q truncated", t.Name)
		}
		t.M = int(binary.LittleEndian.Uint32(p))
		t.CounterSum = binary.LittleEndian.Uint64(p[4:])
		t.OpsEnqueued = binary.LittleEndian.Uint64(p[12:])
		t.OpsDequeued = binary.LittleEndian.Uint64(p[20:])
		t.OpsCounterAdds = binary.LittleEndian.Uint64(p[28:])
		t.CounterDeltaSum = binary.LittleEndian.Uint64(p[36:])
		t.OpsMetered = binary.LittleEndian.Uint64(p[44:])
		items := binary.LittleEndian.Uint32(p[52:])
		p = p[56:]
		if items > maxSnapItems || uint64(len(p)) < uint64(items)*16 {
			return nil, fmt.Errorf("wal: snapshot tenant %q item count %d exceeds payload", t.Name, items)
		}
		if items > 0 {
			t.Items = make([]Item, items)
			for j := range t.Items {
				t.Items[j].Priority = binary.LittleEndian.Uint64(p)
				t.Items[j].Value = binary.LittleEndian.Uint64(p[8:])
				p = p[16:]
			}
		}
		s.Tenants = append(s.Tenants, t)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wal: %d trailing snapshot bytes", len(p))
	}
	return s, nil
}

// WriteSnapshot persists s atomically (tmp + rename + directory sync),
// records its cut, resets the bytes-since-snapshot gauge, and truncates
// segments and snapshots the new snapshot makes dead. The caller guarantees
// s captures all state through s.CutLSN (dlzd's snapshotter quiesces
// mutators, flushes leases, and reads Head() before releasing them).
func (l *Log) WriteSnapshot(s *Snapshot) error {
	payload := encodeSnapshot(s)
	buf := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)

	final := filepath.Join(l.opt.Dir, snapName(s.CutLSN))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(buf); err == nil {
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
	l.snapCut.Store(s.CutLSN)
	l.sinceSnap.Store(0)
	l.truncateObsolete(s.CutLSN)
	return nil
}

// loadSnapshotFile reads and decodes one snapshot file; a nil error means
// the snapshot is fully intact (magic, CRC, canonical payload).
func loadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < frameHeader {
		return nil, fmt.Errorf("wal: snapshot file too short")
	}
	plen := int(binary.LittleEndian.Uint32(data))
	crc := binary.LittleEndian.Uint32(data[4:])
	if plen != len(data)-frameHeader {
		return nil, fmt.Errorf("wal: snapshot length field %d != %d payload bytes", plen, len(data)-frameHeader)
	}
	payload := data[frameHeader:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	return DecodeSnapshot(payload)
}

// truncateObsolete removes segments whose every record is at or before cut
// (the active segment is always kept) and snapshots older than cut. Removal
// failures are ignored: a leftover dead file is re-derived as dead on the
// next recovery.
func (l *Log) truncateObsolete(cut uint64) {
	entries, err := os.ReadDir(l.opt.Dir)
	if err != nil {
		return
	}
	l.mu.Lock()
	active := l.segName
	l.mu.Unlock()

	type seg struct {
		first uint64
		name  string
	}
	var segs []seg
	for _, e := range entries {
		name := e.Name()
		if first, ok := parseSeq(name, "wal-", ".seg"); ok {
			segs = append(segs, seg{first, name})
		} else if c, ok := parseSeq(name, "snap-", ".snap"); ok && c < cut {
			_ = os.Remove(filepath.Join(l.opt.Dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	// A segment is dead when its successor starts at or before cut+1: every
	// record it holds is then ≤ cut and covered by the snapshot.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].first <= cut+1 && segs[i].name != active {
			_ = os.Remove(filepath.Join(l.opt.Dir, segs[i].name))
		}
	}
}
