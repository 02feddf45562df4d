package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
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
	if l.BytesSinceSnapshot() != 0 || l.SnapshotCut() != 20 {
		t.Fatalf("snapshot bookkeeping: since=%d cut=%d", l.BytesSinceSnapshot(), l.SnapshotCut())
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
// to write: the payload is encoded straight behind its frame header into one
// buffer sized in advance, so WriteSnapshot allocates at most 16 bytes per
// element (the encoded items) plus 64 KiB.
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
	if s, err := loadSnapshotFile(filepath.Join(dir, snapName(0))); err != nil || !reflect.DeepEqual(s, snap) {
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

// TestOutOfOrderSnapshotFallsBack: a snapshot whose frame and checksum are
// intact but whose items are out of canonical order fails to decode, since
// the fold takes them as a sorted run, and recovery starts from the older
// snapshot behind it instead.
func TestOutOfOrderSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	var items []Item
	for i := 0; i < 4; i++ {
		items = append(items, Item{Priority: uint64(i), Value: 1})
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "t", Session: "s", Items: items[i:]})
	}
	older := TenantState{Name: "t", Items: items[:2], OpsEnqueued: 2}
	if err := l.WriteSnapshot(&Snapshot{CutLSN: 2, Tenants: []TenantState{older}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	newer := TenantState{Name: "t", Items: []Item{items[0], items[2], items[1], items[3]}, OpsEnqueued: 4}
	payload := encodeSnapshot(nil, &Snapshot{CutLSN: 4, Tenants: []TenantState{newer}})
	if _, err := readSnapshot(bytes.NewReader(payload), int64(len(payload))); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("out-of-order snapshot: err %v, want out of order", err)
	}
	file := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(payload, castagnoli))
	if err := os.WriteFile(filepath.Join(dir, snapName(4)), append(file, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := testOpenAndClose(t, dir)
	if rec.SnapshotCut != 2 || rec.Replayed != 2 || rec.Head != 4 {
		t.Fatalf("recovered from cut %d with %d records to head %d, want cut 2, 2 records, head 4", rec.SnapshotCut, rec.Replayed, rec.Head)
	}
	if len(rec.States) != 1 || !reflect.DeepEqual(rec.States[0].Items, items) {
		t.Fatalf("states %+v, want items %v", rec.States, items)
	}
}

// TestFirstSnapshotLayoutRejected: a payload in the first snapshot layout,
// which carried a u32 shard count per tenant, must fail on its magic rather
// than be read with every later field shifted by four bytes, and the error
// must name the layout it found.
func TestFirstSnapshotLayoutRejected(t *testing.T) {
	p := append([]byte("DLZSNAP1"), binary.LittleEndian.AppendUint64(nil, 7)...)
	p = binary.LittleEndian.AppendUint32(p, 1)
	p = appendShortString(p, "t")
	p = binary.LittleEndian.AppendUint32(p, 8) // the shard count
	p = append(p, make([]byte, 6*8+4)...)      // counter, ledger, zero items
	if _, err := readSnapshot(bytes.NewReader(p), int64(len(p))); !errors.Is(err, errFormat) || !strings.Contains(err.Error(), "format DLZSNAP1") {
		t.Fatalf("first-layout snapshot: err %v, want a format error naming DLZSNAP1", err)
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
	b1 := encodeSnapshot(nil, &Snapshot{Tenants: st1})
	b2 := encodeSnapshot(nil, &Snapshot{Tenants: st2})
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
