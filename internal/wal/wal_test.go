package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func testOpen(t *testing.T, dir string, opt Options) (*Log, *Recovered) {
	t.Helper()
	opt.Dir = dir
	l, rec, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// replayRecords returns the records the read-only probe collects from dir;
// Open itself keeps none.
func replayRecords(t *testing.T, dir string) []Record {
	t.Helper()
	_, rec, err := Replay(dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(rec.Records) != rec.Replayed {
		t.Fatalf("Replay kept %d records, counted %d", len(rec.Records), rec.Replayed)
	}
	return rec.Records
}

func mustAppend(t *testing.T, l *Log, r Record) uint64 {
	t.Helper()
	lsn, err := l.Append(&r)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return lsn
}

func sampleRecords() []Record {
	return []Record{
		{Type: RecEnqueue, Tenant: "acme", Session: "s1",
			Items: []Item{{Priority: 5, Value: 50}, {Priority: 3, Value: 30}}},
		{Type: RecCounterAdd, Tenant: "acme", Session: "s1", Count: 3, Weight: 12},
		{Type: RecDeleteMin, Tenant: "acme", Session: "s2", Items: []Item{{Priority: 3, Value: 30}}},
		{Type: RecSessionClose, Tenant: "acme", Session: "s1"},
		{Type: RecEnqueue, Tenant: "globex", Session: "g", Items: nil},
	}
}

// recordsEqual ignores LSN-independent slice identity quirks (nil vs empty).
func recordsEqual(a, b Record) bool {
	if len(a.Items) == 0 && len(b.Items) == 0 {
		a.Items, b.Items = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := testOpen(t, dir, Options{})
	if rec.Head != 0 || rec.Replayed != 0 || len(rec.States) != 0 || rec.Snapshot != nil {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	want := sampleRecords()
	for i := range want {
		lsn := mustAppend(t, l, want[i])
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d for record %d", lsn, i)
		}
	}
	if l.Head() != uint64(len(want)) {
		t.Fatalf("Head %d", l.Head())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.Append(&Record{Type: RecSessionClose, Tenant: "x"}); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}

	got := replayRecords(t, dir)
	l2, rec2 := testOpen(t, dir, Options{})
	defer l2.Close()
	if rec2.Head != uint64(len(want)) || rec2.TornBytes != 0 {
		t.Fatalf("recovered head=%d torn=%d", rec2.Head, rec2.TornBytes)
	}
	if rec2.Records != nil {
		t.Fatalf("Open kept %d records", len(rec2.Records))
	}
	if rec2.Replayed != len(want) || len(got) != len(want) {
		t.Fatalf("recovered %d records, probe %d, want %d", rec2.Replayed, len(got), len(want))
	}
	for i, got := range got {
		exp := want[i]
		exp.LSN = uint64(i + 1)
		if !recordsEqual(got, exp) {
			t.Fatalf("record %d: got %+v want %+v", i, got, exp)
		}
	}
	// Appends continue from the recovered head.
	if lsn := mustAppend(t, l2, Record{Type: RecSessionClose, Tenant: "y"}); lsn != uint64(len(want)+1) {
		t.Fatalf("post-recovery lsn %d", lsn)
	}
}

func TestSegmentRollAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{SegmentBytes: 256})
	const n = 100
	for i := 0; i < n; i++ {
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Session: "s",
			Items: []Item{{Priority: uint64(i), Value: uint64(i)}}})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	recs := replayRecords(t, dir)
	var prog Progress
	l2, rec, err := OpenWithProgress(Options{Dir: dir}, &prog)
	if err != nil {
		t.Fatalf("OpenWithProgress: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rec.Replayed != n || len(recs) != n || rec.Head != n {
		t.Fatalf("recovered %d records (probe %d) head %d", rec.Replayed, len(recs), rec.Head)
	}
	if prog.Records.Load() != n || prog.Segments.Load() != uint64(len(segs)) {
		t.Fatalf("progress ended at %d records in %d segments, want %d in %d",
			prog.Records.Load(), prog.Segments.Load(), n, len(segs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Items[0].Priority != uint64(i) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
}

func testOpenAndClose(t *testing.T, dir string) (*Log, *Recovered) {
	t.Helper()
	l, rec := testOpen(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return l, rec
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Session: "s",
			Items: []Item{{Priority: uint64(i), Value: 1}}})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record in half.
	if err := os.WriteFile(seg, data[:len(data)-13], 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := testOpenAndClose(t, dir)
	if rec.Replayed != 4 || rec.Head != 4 {
		t.Fatalf("after tear: %d records head %d", rec.Replayed, rec.Head)
	}
	if rec.TornBytes == 0 {
		t.Fatalf("torn bytes not reported")
	}
	// The repair pass must leave the file frame-clean: a second recovery
	// sees no tear.
	_, rec2 := testOpenAndClose(t, dir)
	if rec2.TornBytes != 0 || rec2.Replayed != 4 {
		t.Fatalf("repair did not truncate: %+v", rec2)
	}
}

func TestBitFlipStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	for i := 0; i < 6; i++ {
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Session: "s",
			Items: []Item{{Priority: uint64(i), Value: 1}}})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // corrupt a middle record
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := replayRecords(t, dir)
	_, rec := testOpenAndClose(t, dir)
	if rec.Replayed >= 6 || rec.Replayed != len(recs) {
		t.Fatalf("corrupt record replayed: %d records (probe %d)", rec.Replayed, len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("replay not a prefix: record %d has LSN %d", i, r.LSN)
		}
	}
}

func TestDuplicateSegmentSuffixDropped(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	for i := 0; i < 4; i++ {
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Session: "s",
			Items: []Item{{Priority: uint64(i), Value: 1}}})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Duplicate the segment under a later first-LSN name: its first record
	// claims LSN 1, contradicting the name, so recovery must not replay it.
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(5)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := testOpenAndClose(t, dir)
	if rec.Replayed != 4 || rec.Head != 4 {
		t.Fatalf("duplicate suffix changed replay: %d records head %d", rec.Replayed, rec.Head)
	}
}

func TestSnapshotTruncatesAndCleanCloseReplaysZero(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Session: "s",
			Items: []Item{{Priority: uint64(i), Value: uint64(100 + i)}}})
	}
	snap := &Snapshot{
		CutLSN: l.Head(),
		Tenants: []TenantState{{
			Name:        "t",
			Items:       []Item{{Priority: 1, Value: 101}, {Priority: 2, Value: 102}},
			OpsEnqueued: 20,
		}},
	}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if l.BytesSinceSnapshot() != 0 {
		t.Fatalf("snapshot bookkeeping: since=%d", l.BytesSinceSnapshot())
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("dead segments not truncated: %v", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := testOpen(t, dir, Options{})
	defer l2.Close()
	if rec.Replayed != 0 {
		t.Fatalf("clean restart replayed %d records", rec.Replayed)
	}
	if rec.Snapshot == nil || rec.SnapshotCut != 20 || rec.Head != 20 {
		t.Fatalf("snapshot not recovered: %+v", rec)
	}
	if !reflect.DeepEqual(rec.States, snap.Tenants) {
		t.Fatalf("states %+v differ from the snapshot they were folded from", rec.States)
	}
	ts := rec.States
	if len(ts) != 1 || ts[0].Name != "t" || len(ts[0].Items) != 2 {
		t.Fatalf("snapshot state: %+v", ts)
	}
}

// TestWriteSnapshotAllocBound pins what a snapshot of 100 k elements costs
// to write: at most 16 bytes per element plus 64 KiB. The frames go out
// through one buffer the size of recovery's window, so what it allocates
// does not grow with the snapshot.
// TestTruncationBoundary pins where a snapshot's cut makes a segment dead:
// exactly when its successor starts at or before cut+1. A cut one below the
// second segment's first LSN covers every record of the first segment and
// removes it; a cut two below leaves that segment's last record uncovered
// and keeps it.
func TestTruncationBoundary(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{SegmentBytes: 256})
	defer l.Close()
	var segs []dirFile
	for len(segs) < 3 {
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Items: []Item{{Priority: 1, Value: 2}}})
		segs, _, _ = listDir(dir)
	}
	first, next := segs[0].path, segs[1].seq
	for _, c := range []struct {
		cut  uint64
		kept bool
	}{{next - 2, true}, {next - 1, false}} {
		if err := l.WriteSnapshot(&Snapshot{CutLSN: c.cut}); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
		if _, err := os.Stat(first); (err == nil) != c.kept {
			t.Fatalf("cut %d, next segment at LSN %d: first segment kept %v, want %v", c.cut, next, err == nil, c.kept)
		}
	}
}

func TestWriteSnapshotAllocBound(t *testing.T) {
	const n = 100_000
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	ts := TenantState{Name: "acme", OpsEnqueued: n, Items: make([]Item, n)}
	for i := range ts.Items {
		ts.Items[i] = Item{Priority: uint64(i), Value: uint64(i)}
	}
	snap := &Snapshot{Tenants: []TenantState{ts}}
	var err error
	got := heapAllocated(func() { err = l.WriteSnapshot(snap) })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if limit := uint64(16*n + 64<<10); got > limit {
		t.Fatalf("WriteSnapshot of %d elements allocated %d bytes, want <= %d", n, got, limit)
	}
	if s, err := loadSnapshot(filepath.Join(dir, snapName(0)), make([]byte, recoverWindow)); err != nil || !reflect.DeepEqual(s, snap) {
		t.Fatalf("snapshot does not read back: %v", err)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Session: "s",
			Items: []Item{{Priority: uint64(i), Value: 1}}})
	}
	if err := l.WriteSnapshot(&Snapshot{CutLSN: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the snapshot: recovery must fall back to full journal replay.
	path := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := testOpenAndClose(t, dir)
	if rec.Snapshot != nil {
		t.Fatalf("corrupt snapshot decoded")
	}
	if rec.Replayed != 3 || rec.Head != 3 {
		t.Fatalf("fallback replay: %d records head %d", rec.Replayed, rec.Head)
	}
}

// snapshotted writes n one-item enqueues of tenant "t" into dir through
// 256-byte segments, taking a snapshot at LSN 20, and closes the log.
func snapshotted(t *testing.T, dir string, n uint64) {
	l, _ := testOpen(t, dir, Options{SegmentBytes: 256})
	st := TenantState{Name: "t"}
	for i := uint64(1); i <= n; i++ {
		it := Item{Priority: i, Value: 1}
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Items: []Item{it}})
		st.Items, st.OpsEnqueued = append(st.Items, it), i
		if i == 20 {
			if err := l.WriteSnapshot(&Snapshot{CutLSN: 20, Tenants: []TenantState{st}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUnreachableJournalRefused: recovery repairs only what a crash can
// leave, a torn tail on the newest segment. A journal the durable prefix
// cannot reach holds acknowledged records no repair brings back, so Open
// and Replay both fail on it, naming the loss, and change no file.
func TestUnreachableJournalRefused(t *testing.T) {
	flip := func(path string) {
		data, _ := os.ReadFile(path)
		data[len(data)/2] ^= 0x40
		_ = os.WriteFile(path, data, 0o644)
	}
	files := func(dir string) map[string]string {
		m := make(map[string]string)
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			data, _ := os.ReadFile(filepath.Join(dir, e.Name()))
			m[e.Name()] = string(data)
		}
		return m
	}
	// Each damages 45 records in segments from LSN 19, 25, 31, 37 and 43
	// behind a snapshot at 20, and returns what the refusal must say.
	for _, tc := range []struct {
		name   string
		damage func(dir string, segs []dirFile) string
	}{
		{"corrupt snapshot over a truncated journal", func(dir string, segs []dirFile) string {
			flip(filepath.Join(dir, snapName(20)))
			return fmt.Sprintf("records 1 to %d are missing, and the newest snapshot %s is not whole",
				segs[0].seq-1, filepath.Join(dir, snapName(20)))
		}},
		{"corrupt snapshot over no journal", func(dir string, segs []dirFile) string {
			flip(filepath.Join(dir, snapName(20)))
			for _, s := range segs {
				_ = os.Remove(s.path)
			}
			return "records 1 to 20 are missing"
		}},
		{"corrupt frame before a later segment", func(_ string, segs []dirFile) string {
			flip(segs[1].path)
			return "bad frame"
		}},
		{"missing segment", func(_ string, segs []dirFile) string {
			_ = os.Remove(segs[1].path)
			return fmt.Sprintf("records %d to %d are missing", segs[1].seq, segs[2].seq-1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			snapshotted(t, dir, 45)
			segs, _, _ := listDir(dir)
			want := tc.damage(dir, segs)
			before := files(dir)
			if l, _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Open: %v, want it to say %q", err, want)
				if err == nil {
					l.Close()
				}
			}
			if _, _, err := Replay(dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Replay: %v, want it to say %q", err, want)
			}
			if !reflect.DeepEqual(files(dir), before) {
				t.Error("a refused recovery changed the directory")
			}
		})
	}
}

// TestJournalBehindSnapshotOpens: WriteSnapshot does not sync the active
// segment, so a power cut after it can leave that segment ending below the
// cut, torn. The snapshot holds every record up to the cut, so Open
// truncates the tail and resumes the journal right after the cut.
func TestJournalBehindSnapshotOpens(t *testing.T) {
	dir := t.TempDir()
	snapshotted(t, dir, 20)
	segs, _, _ := listDir(dir)
	frame := frameHeader + payloadLen(&Record{Type: RecEnqueue, Tenant: "t", Items: make([]Item, 1)})
	if err := os.Truncate(segs[0].path, int64(len(segWord)+frame+3)); err != nil || len(segs) != 1 || segs[0].seq != 19 {
		t.Fatalf("segments %v (truncate: %v), want one from LSN 19", segs, err)
	}
	l, rec := testOpen(t, dir, Options{})
	if rec.Head != 20 || rec.TornBytes != 3 || len(rec.States) != 1 || len(rec.States[0].Items) != 20 {
		t.Fatalf("recovered head %d, %d torn bytes, states %+v; want head 20, 3, 20 items", rec.Head, rec.TornBytes, rec.States)
	}
	if lsn := mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Items: make([]Item, 1)}); lsn != 21 {
		t.Fatalf("first append after recovery got LSN %d, want 21", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, rec, err := Replay(dir); err != nil || rec.Head != 21 || len(st[0].Items) != 21 {
		t.Fatalf("second recovery: head %v, err %v", rec, err)
	}
}

// TestOutOfOrderSnapshotFallsBack: a snapshot whose frames and checksums
// are intact but whose items are out of canonical order, within a frame or
// across the boundary between two, is refused, since the fold takes them as
// a sorted run, and recovery starts from the older snapshot behind it
// instead.
func TestOutOfOrderSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	per := frameItems("t")
	var items []Item
	for i := 0; i < per+2; i++ {
		items = append(items, Item{Priority: uint64(i), Value: 1})
	}
	mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Items: items[:2]})
	older := TenantState{Name: "t", Items: items[:2], OpsEnqueued: 2}
	if err := l.WriteSnapshot(&Snapshot{CutLSN: 1, Tenants: []TenantState{older}}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Items: items[2:]})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(2))
	newer := TenantState{Name: "t", Items: slices.Clone(items), OpsEnqueued: uint64(len(items))}
	if _, err := readSnapshotBytes(path, snapshotBytes(&Snapshot{CutLSN: 2, Tenants: []TenantState{newer}})); err != nil {
		t.Fatalf("the snapshot in order is refused: %v", err)
	}
	for _, swap := range []int{1, per} { // items swap-1 and swap: in the first frame, and across the first two
		newer.Items = slices.Clone(items)
		newer.Items[swap-1], newer.Items[swap] = newer.Items[swap], newer.Items[swap-1]
		if _, err := readSnapshotBytes(path, snapshotBytes(&Snapshot{CutLSN: 2, Tenants: []TenantState{newer}})); err == nil {
			t.Fatalf("items %d and %d swapped: snapshot accepted", swap-1, swap)
		}
		_, rec := testOpenAndClose(t, dir)
		if rec.SnapshotCut != 1 || rec.Replayed != 1 || rec.Head != 2 {
			t.Fatalf("recovered from cut %d with %d records to head %d, want cut 1, 1 record, head 2", rec.SnapshotCut, rec.Replayed, rec.Head)
		}
		if len(rec.States) != 1 || !reflect.DeepEqual(rec.States[0].Items, items) {
			t.Fatalf("states hold %d tenants, want the %d items", len(rec.States), len(items))
		}
	}
}

// TestTornSnapshotRejectedWhole: a snapshot file is frames, so unlike the
// single-frame layout before it, a damaged one can have a valid prefix.
// Recovery must refuse such a file whole and start from the older snapshot
// behind it with the full journal tail, whether the file is cut at a frame
// boundary (the end record dropped, for one) or inside a frame, has a byte
// flipped in any frame, or has one more valid frame behind its end. A
// snapshot-only record is no more valid in a segment: a well-framed tenant
// header there stops replay as a corrupt frame would.
func TestTornSnapshotRejectedWhole(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	seq := uint64(0)
	enqueue := func(tenant string, n int) {
		r := Record{Type: RecEnqueue, Tenant: tenant}
		for ; n > 0; n-- {
			seq++
			r.Items = append(r.Items, Item{Priority: seq % 7, Value: seq})
		}
		mustAppend(t, l, r)
	}
	enqueue("a", 100)
	enqueue("b", 1)
	older, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	oldCut := l.Head()
	if err := l.WriteSnapshot(&Snapshot{CutLSN: oldCut, Tenants: older}); err != nil {
		t.Fatal(err)
	}
	enqueue("a", frameItems("a")) // a's items now take two frames
	enqueue("b", 2)
	mustAppend(t, l, Record{Type: RecCounterAdd, Tenant: "b", Count: 2, Weight: 5})
	mustAppend(t, l, Record{Type: RecDeleteMin, Tenant: "a", Items: []Item{{Priority: 1, Value: 1}}})
	cut := l.Head()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	file := snapshotBytes(&Snapshot{CutLSN: cut, Tenants: want})
	frames := []int{len(snapWord)} // the offset of each frame, and the file's end
	for off := len(snapWord); off < len(file); {
		off += frameHeader + int(binary.LittleEndian.Uint32(file[off:]))
		frames = append(frames, off)
	}
	if len(frames) != 7 {
		t.Fatalf("the snapshot is %d frames, want 6: two tenant headers, three item frames, the end", len(frames)-1)
	}

	path := filepath.Join(dir, snapName(cut))
	recoverFrom := func(name string, data []byte, wantCut uint64) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rec := testOpenAndClose(t, dir)
		if rec.SnapshotCut != wantCut || rec.Head != cut || rec.Replayed != int(cut-wantCut) || !reflect.DeepEqual(rec.States, want) {
			t.Fatalf("%s: recovered from cut %d with %d records to head %d, want cut %d, %d records, head %d and the journal's states",
				name, rec.SnapshotCut, rec.Replayed, rec.Head, wantCut, cut-wantCut, cut)
		}
	}
	recoverFrom("whole", file, cut)
	recoverFrom("empty", nil, oldCut)
	for i := 0; i+1 < len(frames); i++ {
		start, end := frames[i], frames[i+1]
		recoverFrom(fmt.Sprintf("cut before frame %d", i+1), file[:start], oldCut)
		recoverFrom(fmt.Sprintf("cut inside frame %d", i+1), file[:(start+end)/2], oldCut)
		flipped := slices.Clone(file)
		flipped[(start+end)/2] ^= 0x20
		recoverFrom(fmt.Sprintf("byte flipped in frame %d", i+1), flipped, oldCut)
	}
	recoverFrom("end record dropped", file[:frames[len(frames)-2]], oldCut)
	extra := appendFrame(slices.Clone(file), &Record{LSN: uint64(len(frames)), Type: RecTenant, Tenant: "c"})
	recoverFrom("a frame behind the end", extra, oldCut)

	dir = t.TempDir()
	l, _ = testOpen(t, dir, Options{})
	mustAppend(t, l, Record{Type: RecCounterAdd, Tenant: "a", Count: 1, Weight: 1})
	for _, typ := range []RecordType{RecTenant, RecSnapshotEnd} {
		if _, err := l.Append(&Record{Type: typ, Tenant: "a"}); err == nil {
			t.Fatalf("Append took a record of type %d into a segment", typ)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tail := appendFrame(nil, &Record{LSN: 2, Type: RecTenant, Tenant: "a", Items: make([]Item, 3)})
	tail = appendFrame(tail, &Record{LSN: 3, Type: RecCounterAdd, Tenant: "a", Count: 1, Weight: 1})
	seg, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := testOpenAndClose(t, dir)
	if rec.Replayed != 1 || rec.Head != 1 || rec.TornBytes != int64(len(tail)) || rec.States[0].CounterSum != 1 {
		t.Fatalf("a segment with a tenant header at LSN 2 replayed %d records to head %d, %d torn bytes, states %+v; want 1, 1, %d",
			rec.Replayed, rec.Head, rec.TornBytes, rec.States, len(tail))
	}
}

func TestRebuildCompensation(t *testing.T) {
	recs := []Record{
		// The dequeue of (9,9) is journaled before any enqueue of it — the
		// racing-session interleaving the fold compensates for.
		{LSN: 1, Type: RecDeleteMin, Tenant: "a", Items: []Item{{Priority: 9, Value: 9}}},
		{LSN: 2, Type: RecEnqueue, Tenant: "a", Items: []Item{{Priority: 1, Value: 10}, {Priority: 2, Value: 20}}},
		{LSN: 3, Type: RecDeleteMin, Tenant: "a", Items: []Item{{Priority: 1, Value: 10}}},
		{LSN: 4, Type: RecCounterAdd, Tenant: "a", Count: 2, Weight: 7},
		{LSN: 5, Type: RecSessionClose, Tenant: "a"},
		{LSN: 6, Type: RecEnqueue, Tenant: "b", Items: []Item{{Priority: 5, Value: 5}}},
	}
	out := foldAll(nil, recs)
	if len(out) != 2 || out[0].Name != "a" || out[1].Name != "b" {
		t.Fatalf("tenants: %+v", out)
	}
	a := out[0]
	if !reflect.DeepEqual(a.Items, []Item{{Priority: 2, Value: 20}}) {
		t.Fatalf("a items: %+v", a.Items)
	}
	// unmatched dequeue of (9,9) credits a compensating enqueue: 2+1 = 3.
	if a.OpsEnqueued != 3 || a.OpsDequeued != 2 {
		t.Fatalf("a ledger: enq=%d deq=%d", a.OpsEnqueued, a.OpsDequeued)
	}
	if int(a.OpsEnqueued-a.OpsDequeued) != len(a.Items) {
		t.Fatalf("conservation violated: %d != %d", a.OpsEnqueued-a.OpsDequeued, len(a.Items))
	}
	if a.CounterSum != 7 || a.CounterDeltaSum != 7 || a.OpsCounterAdds != 2 {
		t.Fatalf("a counter: %+v", a)
	}
}

func TestRebuildOnSnapshotBase(t *testing.T) {
	snap := &Snapshot{
		CutLSN: 10,
		Tenants: []TenantState{{
			Name: "a", Items: []Item{{Priority: 1, Value: 1}, {Priority: 2, Value: 2}},
			CounterSum: 5, OpsEnqueued: 4, OpsDequeued: 2,
			OpsCounterAdds: 1, CounterDeltaSum: 5,
		}},
	}
	recs := []Record{
		{LSN: 11, Type: RecDeleteMin, Tenant: "a", Items: []Item{{Priority: 1, Value: 1}}},
		{LSN: 12, Type: RecEnqueue, Tenant: "a", Items: []Item{{Priority: 3, Value: 3}}},
	}
	out := foldAll(snap, recs)
	if len(out) != 1 {
		t.Fatalf("tenants: %+v", out)
	}
	a := out[0]
	if !reflect.DeepEqual(a.Items, []Item{{Priority: 2, Value: 2}, {Priority: 3, Value: 3}}) {
		t.Fatalf("items: %+v", a.Items)
	}
	if a.OpsEnqueued != 5 || a.OpsDequeued != 3 {
		t.Fatalf("ledger: %+v", a)
	}
}

func TestRebuildDeterministic(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{SegmentBytes: 200})
	for i := 0; i < 50; i++ {
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Session: "s",
			Items: []Item{{Priority: uint64(i % 7), Value: uint64(i)}}})
		if i%3 == 0 {
			mustAppend(t, l, Record{Type: RecDeleteMin, Tenant: "t", Session: "s",
				Items: []Item{{Priority: uint64(i % 7), Value: uint64(i)}}})
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st1, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	b1 := snapshotBytes(&Snapshot{Tenants: st1})
	b2 := snapshotBytes(&Snapshot{Tenants: st2})
	if !bytes.Equal(b1, b2) {
		t.Fatalf("double replay diverged")
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("double replay states differ")
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{Policy: FsyncAlways})
	const (
		workers = 8
		each    = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r := Record{Type: RecEnqueue, Tenant: "t", Session: "s",
					Items: []Item{{Priority: uint64(w), Value: uint64(i)}}}
				if _, err := l.Append(&r); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	if got := l.Head(); got != workers*each {
		t.Fatalf("head %d, want %d", got, workers*each)
	}
	if l.Fsyncs() == 0 {
		t.Fatalf("FsyncAlways issued no fsyncs")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := replayRecords(t, dir)
	if len(recs) != workers*each {
		t.Fatalf("recovered %d of %d", len(recs), workers*each)
	}
	seen := make(map[uint64]bool)
	for _, r := range recs {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
	}
}

func TestIntervalFlusher(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{Policy: FsyncInterval, Interval: time.Millisecond})
	mustAppend(t, l, Record{Type: RecSessionClose, Tenant: "t"})
	deadline := time.Now().Add(2 * time.Second)
	for l.Fsyncs() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if l.Fsyncs() == 0 {
		t.Fatalf("interval flusher never synced")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRefusesOversizedRecord pins the write side of the frame limits:
// a record whose payload exceeds MaxPayload, or that carries more than
// maxBatchItems items, is refused before it gets an LSN or a byte of the
// segment, because recovery would stop at it and truncate it away together
// with every record behind it. A record at the payload limit appends and
// recovers, through a read window it has to grow.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Items: []Item{{Priority: 1, Value: 1}}})
	seg := filepath.Join(dir, segName(1))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	largest := Record{Type: RecEnqueue, Tenant: "t"}
	largest.Items = make([]Item, (MaxPayload-payloadLen(&largest))/16)
	for i := range largest.Items {
		largest.Items[i] = Item{Priority: uint64(i), Value: uint64(i)}
	}
	over := largest
	over.Items = append(largest.Items[:len(largest.Items):len(largest.Items)], Item{Priority: 1 << 40, Value: 1})
	for _, r := range []Record{over, {Type: RecDeleteMin, Tenant: "t", Items: make([]Item, maxBatchItems+1)}} {
		lsn, err := l.Append(&r)
		if err == nil || lsn != 0 || r.LSN != 0 {
			t.Fatalf("record of %d items, %d payload bytes: lsn %d, record LSN %d, err %v; want refused", len(r.Items), payloadLen(&r), lsn, r.LSN, err)
		}
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != st.Size() || l.Head() != 1 {
		t.Fatalf("refused appends moved the journal: head %d, segment %d -> %d bytes", l.Head(), st.Size(), after.Size())
	}

	if lsn := mustAppend(t, l, largest); lsn != 2 || payloadLen(&largest) > MaxPayload {
		t.Fatalf("largest record: lsn %d, %d payload bytes", lsn, payloadLen(&largest))
	}
	mustAppend(t, l, Record{Type: RecSessionClose, Tenant: "t"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := testOpenAndClose(t, dir)
	if rec.Replayed != 3 || rec.Head != 3 || rec.TornBytes != 0 || len(rec.States[0].Items) != 1+len(largest.Items) {
		t.Fatalf("recovered %d records head %d torn %d", rec.Replayed, rec.Head, rec.TornBytes)
	}
}

func TestCodecCanonical(t *testing.T) {
	for i, r := range sampleRecords() {
		r.LSN = uint64(i + 1)
		frame := appendFrame(nil, &r)
		recs, good := scanAll(frame, r.LSN)
		if good != len(frame) || len(recs) != 1 {
			t.Fatalf("record %d: decode consumed %d of %d", i, good, len(frame))
		}
		if !recordsEqual(recs[0], r) {
			t.Fatalf("record %d round trip: %+v != %+v", i, recs[0], r)
		}
		re := appendFrame(nil, &recs[0])
		if !bytes.Equal(re, frame) {
			t.Fatalf("record %d not canonical", i)
		}
	}
	// Kind 4 once journaled a shard-count change (a u32 body). It is no
	// longer a record type: a well-framed kind-4 record must be rejected as
	// unknown, by the decoder and by the reference decoder alike.
	payload := append([]byte{4}, binary.LittleEndian.AppendUint64(nil, 1)...)
	payload = appendShortString(appendShortString(payload, "acme"), "")
	payload = binary.LittleEndian.AppendUint32(payload, 8)
	var r Record
	if err := decodeInto(&r, payload); err == nil || !strings.Contains(err.Error(), "unknown record type 4") {
		t.Fatalf("kind-4 payload: err %v, want unknown record type", err)
	}
	if _, err := decodePayload(payload); err == nil || !strings.Contains(err.Error(), "unknown record type 4") {
		t.Fatalf("reference decoder, kind-4 payload: err %v, want unknown record type", err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	if recs, good := scanAll(frame, 1); len(recs) != 0 || good != 0 {
		t.Fatalf("kind-4 frame: scan kept %d records, goodLen %d", len(recs), good)
	}
	if recs, good := DecodeSegment(frame, 1); len(recs) != 0 || good != 0 {
		t.Fatalf("kind-4 frame: reference kept %d records, goodLen %d", len(recs), good)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"never", FsyncNever}, {"Interval", FsyncInterval}, {" always ", FsyncAlways}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Fatalf("empty String for %v", got)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatalf("bogus policy accepted")
	}
}
