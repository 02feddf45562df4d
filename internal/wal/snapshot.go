package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// snapMagic heads every snapshot payload so a stray file can never be
// mistaken for one. The 2 is the layout: the first one carried a u32 shard
// count per tenant, and a payload in it fails here rather than mis-parsing.
var snapMagic = []byte("DLZSNAP2")

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
func (ts *TenantState) SortItems() { slices.SortFunc(ts.Items, Item.Compare) }

// Snapshot is a point-in-time capture of every tenant at a single cut LSN:
// replaying records with LSN > CutLSN on top of it reproduces the journal
// head state.
type Snapshot struct {
	CutLSN  uint64
	Tenants []TenantState
}

// snapshotLen returns the length of encodeSnapshot's output for s.
func snapshotLen(s *Snapshot) int {
	n := len(snapMagic) + 8 + 4
	for i := range s.Tenants {
		n += 1 + min(len(s.Tenants[i].Name), 255) + 6*8 + 4 + 16*len(s.Tenants[i].Items)
	}
	return n
}

// encodeSnapshot appends the payload encoding of s to p.
func encodeSnapshot(p []byte, s *Snapshot) []byte {
	p = append(p, snapMagic...)
	p = binary.LittleEndian.AppendUint64(p, s.CutLSN)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s.Tenants)))
	for i := range s.Tenants {
		t := &s.Tenants[i]
		p = appendShortString(p, t.Name)
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
	return readSnapshot(bytes.NewReader(p), int64(len(p)))
}

// snapDecoder hands out a snapshot payload's bytes from a bufio.Reader,
// counting what is left of the payload so that no count in it can claim
// more bytes than remain.
type snapDecoder struct {
	br   *bufio.Reader
	left int64
}

// take returns the next k payload bytes, valid until the next take. k is at
// most the reader's buffer size.
func (d *snapDecoder) take(k int) ([]byte, error) {
	if int64(k) > d.left {
		return nil, fmt.Errorf("wal: snapshot payload ends %d bytes early", int64(k)-d.left)
	}
	b, err := d.br.Peek(k)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot read: %w", err)
	}
	_, _ = d.br.Discard(k) // cannot fail: Peek buffered k bytes
	d.left -= int64(k)
	return b, nil
}

// readSnapshot decodes the n-byte snapshot payload read from r. It reads
// through one buffer of at most 64 KiB and never past n bytes of r, and
// decodes items from that buffer straight into each tenant's slice, so no
// copy of the payload is ever resident. Strict: a payload that ends early,
// carries an out-of-range count, holds a tenant's items out of canonical
// order (recovery folds the journal into them as a sorted run) or has bytes
// left over is an error.
func readSnapshot(r io.Reader, n int64) (*Snapshot, error) {
	d := snapDecoder{br: bufio.NewReaderSize(io.LimitReader(r, n), int(min(n, 64<<10))), left: n}
	b, err := d.take(len(snapMagic) + 12)
	if err != nil || string(b[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("wal: not a snapshot payload")
	}
	s := &Snapshot{CutLSN: binary.LittleEndian.Uint64(b[len(snapMagic):])}
	tenants := binary.LittleEndian.Uint32(b[len(snapMagic)+8:])
	if tenants > maxSnapTenants {
		return nil, fmt.Errorf("wal: snapshot tenant count %d exceeds cap", tenants)
	}
	for i := uint32(0); i < tenants; i++ {
		var t TenantState
		if b, err = d.take(1); err != nil {
			return nil, fmt.Errorf("wal: snapshot tenant name: %w", err)
		}
		if b, err = d.take(int(b[0])); err != nil {
			return nil, fmt.Errorf("wal: snapshot tenant name: %w", err)
		}
		t.Name = string(b)
		if b, err = d.take(6*8 + 4); err != nil {
			return nil, fmt.Errorf("wal: snapshot tenant %q: %w", t.Name, err)
		}
		t.CounterSum = binary.LittleEndian.Uint64(b)
		t.OpsEnqueued = binary.LittleEndian.Uint64(b[8:])
		t.OpsDequeued = binary.LittleEndian.Uint64(b[16:])
		t.OpsCounterAdds = binary.LittleEndian.Uint64(b[24:])
		t.CounterDeltaSum = binary.LittleEndian.Uint64(b[32:])
		t.OpsMetered = binary.LittleEndian.Uint64(b[40:])
		items := binary.LittleEndian.Uint32(b[48:])
		if items > maxSnapItems || uint64(items)*16 > uint64(d.left) {
			return nil, fmt.Errorf("wal: snapshot tenant %q item count %d exceeds payload", t.Name, items)
		}
		if items > 0 {
			t.Items = make([]Item, items)
		}
		for j := 0; j < len(t.Items); {
			if b, err = d.take(16 * min(len(t.Items)-j, d.br.Size()/16)); err != nil {
				return nil, fmt.Errorf("wal: snapshot tenant %q: %w", t.Name, err)
			}
			for ; len(b) > 0; b = b[16:] {
				t.Items[j] = Item{Priority: binary.LittleEndian.Uint64(b), Value: binary.LittleEndian.Uint64(b[8:])}
				if j > 0 && t.Items[j].Compare(t.Items[j-1]) < 0 {
					return nil, fmt.Errorf("wal: snapshot tenant %q item %d out of order", t.Name, j)
				}
				j++
			}
		}
		s.Tenants = append(s.Tenants, t)
	}
	if d.left != 0 {
		return nil, fmt.Errorf("wal: %d trailing snapshot bytes", d.left)
	}
	return s, nil
}

// WriteSnapshot persists s atomically (tmp + rename + directory sync),
// records its cut, resets the bytes-since-snapshot gauge, and truncates
// segments and snapshots the new snapshot makes dead. The caller guarantees
// s captures all state through s.CutLSN (dlzd's snapshotter quiesces
// mutators, flushes leases, and reads Head() before releasing them).
func (l *Log) WriteSnapshot(s *Snapshot) error {
	buf := encodeSnapshot(make([]byte, frameHeader, frameHeader+snapshotLen(s)), s)
	payload := buf[frameHeader:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))

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
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readSnapshotFile(f, st.Size())
}

// readSnapshotFile decodes a snapshot file of size bytes read from r: the
// frame header, then the payload streamed through readSnapshot with its
// CRC32C computed as the bytes pass. The file is never resident whole.
func readSnapshotFile(r io.Reader, size int64) (*Snapshot, error) {
	var head [frameHeader]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("wal: snapshot file too short")
	}
	plen := int64(binary.LittleEndian.Uint32(head[:]))
	if plen != size-frameHeader {
		return nil, fmt.Errorf("wal: snapshot length field %d != %d payload bytes", plen, size-frameHeader)
	}
	crc := crc32.New(castagnoli)
	s, err := readSnapshot(io.TeeReader(r, crc), plen)
	if err != nil {
		return nil, err
	}
	// readSnapshot took exactly plen bytes, so crc has seen the whole payload.
	if crc.Sum32() != binary.LittleEndian.Uint32(head[4:]) {
		return nil, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	return s, nil
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
