package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// foldAll runs the streaming fold over records already in memory. The fold
// takes over the snapshot's item arrays, so it runs on a copy of snap.
func foldAll(snap *Snapshot, recs []Record) []TenantState {
	f := newFold(cloneSnapshot(snap))
	for i := range recs {
		f.apply(&recs[i])
	}
	return f.states()
}

func cloneSnapshot(snap *Snapshot) *Snapshot {
	if snap == nil {
		return nil
	}
	c := &Snapshot{CutLSN: snap.CutLSN, Tenants: slices.Clone(snap.Tenants)}
	for i := range c.Tenants {
		c.Tenants[i].Items = slices.Clone(c.Tenants[i].Items)
	}
	return c
}

// snapshotBytes is the snapshot file writeSnapshot makes of s.
func snapshotBytes(s *Snapshot) []byte {
	var b bytes.Buffer
	if err := writeSnapshot(&b, s); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return b.Bytes()
}

// readSnapshotBytes reads data as the snapshot file at path, the way
// recovery reads one.
func readSnapshotBytes(path string, data []byte) (*Snapshot, error) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return loadSnapshot(path, make([]byte, recoverWindow))
}

// scanSegment scans one whole segment image in memory: scanStream's
// contract, with the image as the window and nothing to refill.
func (sc *scanner) scanSegment(data []byte, wantFirst uint64, visit func(*Record)) (goodLen int) {
	sc.next, sc.pinned = wantFirst, wantFirst != 0
	return sc.scan(data, visit)
}

// scanAll collects what the streaming scanner yields for one segment image.
func scanAll(data []byte, wantFirst uint64) (recs []Record, goodLen int) {
	var sc scanner
	goodLen = sc.scanSegment(data, wantFirst, func(r *Record) { recs = append(recs, r.clone()) })
	return recs, goodLen
}

// streamAll is scanAll through a window of w bytes, as recovery reads a
// segment file: what the windowed scan yields for the same image, and the
// size it read.
func streamAll(data []byte, wantFirst uint64, w int) (recs []Record, goodLen, size int64, err error) {
	var sc scanner
	goodLen, size, _, err = sc.scanStream(bytes.NewReader(data), make([]byte, w), wantFirst,
		func(r *Record) { recs = append(recs, r.clone()) })
	return recs, goodLen, size, err
}

// randomStream draws a snapshot base and a journal tail behind it that hit
// everything the fold treats specially: few distinct (priority, value)
// pairs, so the same element is enqueued many times over; deletes drawn
// blind, so some find no element, some find it only later and some never;
// counter adds, session closes and empty batches in between; and
// tenants that exist only in the snapshot or only in the tail.
func randomStream(rng *rand.Rand) (*Snapshot, []Record) {
	tenants := []string{"a", "b", "c", "d"}[:1+rng.Intn(4)]
	item := func() Item { return Item{Priority: uint64(rng.Intn(4)), Value: uint64(rng.Intn(3))} }

	var snap *Snapshot
	lsn := uint64(0)
	if rng.Intn(3) > 0 {
		lsn = uint64(rng.Intn(1000))
		snap = &Snapshot{CutLSN: lsn}
		for _, name := range append([]string{"snap-only"}, tenants...) {
			if rng.Intn(3) == 0 {
				continue
			}
			rng.Intn(3) // the draw that once set a shard count: keeps the streams as they were
			ts := TenantState{Name: name,
				CounterSum: uint64(rng.Intn(50)), OpsCounterAdds: uint64(rng.Intn(9)),
				OpsDequeued: uint64(rng.Intn(9))}
			rng.Intn(99) // the draw that once set a metered count: keeps the streams as they were
			for n := rng.Intn(12); n > 0; n-- {
				ts.Items = append(ts.Items, item())
			}
			ts.SortItems()
			ts.CounterDeltaSum = ts.CounterSum
			ts.OpsEnqueued = ts.OpsDequeued + uint64(len(ts.Items))
			snap.Tenants = append(snap.Tenants, ts)
		}
	}

	recs := make([]Record, rng.Intn(300))
	for i := range recs {
		lsn++
		r := Record{LSN: lsn, Tenant: tenants[rng.Intn(len(tenants))], Session: fmt.Sprint("s", rng.Intn(3))}
		switch k := rng.Intn(16); {
		case k < 6:
			r.Type = RecEnqueue
		case k < 12:
			r.Type = RecDeleteMin
		case k < 14:
			r.Type, r.Count, r.Weight = RecCounterAdd, uint64(1+rng.Intn(8)), uint64(rng.Intn(100))
		case k < 15:
			// Once a shard-count record: its draw stays, so that every
			// other draw of the stream is what it was.
			r.Type = RecSessionClose
			rng.Intn(6)
		default:
			r.Type = RecSessionClose
		}
		if r.Type == RecEnqueue || r.Type == RecDeleteMin {
			for n := rng.Intn(9); n > 0; n-- {
				r.Items = append(r.Items, item())
			}
		}
		recs[i] = r
	}
	return snap, recs
}

// TestFoldMatchesTwoPassRebuild is the differential property test: on
// seeded random streams the one-pass fold into sorted runs — fed from memory,
// and fed by the scanner out of its recycled scratch record — produces
// exactly what the two-pass reference produces, down to the snapshot bytes.
func TestFoldMatchesTwoPassRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	unmatched, dups := 0, 0
	for round := 0; round < 400; round++ {
		snap, recs := randomStream(rng)
		want := Rebuild(snap, recs)

		if got := foldAll(snap, recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: fold from memory\n got %+v\nwant %+v", round, got, want)
		}

		var image []byte
		for i := range recs {
			image = appendFrame(image, &recs[i])
		}
		f := newFold(cloneSnapshot(snap))
		var sc scanner
		first := uint64(0)
		if len(recs) > 0 {
			first = recs[0].LSN
		}
		if good := sc.scanSegment(image, first, f.apply); good != len(image) {
			t.Fatalf("round %d: scan stopped at %d of %d", round, good, len(image))
		}
		got := f.states()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: fold from the scanner\n got %+v\nwant %+v", round, got, want)
		}
		if !bytes.Equal(snapshotBytes(&Snapshot{Tenants: got}), snapshotBytes(&Snapshot{Tenants: want})) {
			t.Fatalf("round %d: equal states encode differently", round)
		}

		// What the streams exercised, so a generator that stopped producing
		// the hard cases fails here instead of passing vacuously.
		for _, ts := range want {
			var enq, deq uint64
			if snap != nil {
				for _, st := range snap.Tenants {
					if st.Name == ts.Name {
						enq, deq = st.OpsEnqueued, st.OpsDequeued
					}
				}
			}
			for _, r := range recs {
				if r.Tenant == ts.Name && r.Type == RecEnqueue {
					enq += uint64(len(r.Items))
				}
				if r.Tenant == ts.Name && r.Type == RecDeleteMin {
					deq += uint64(len(r.Items))
				}
			}
			if ts.OpsDequeued != deq || ts.OpsEnqueued-ts.OpsDequeued != uint64(len(ts.Items)) {
				t.Fatalf("round %d tenant %s: ledger enq=%d deq=%d items=%d", round, ts.Name, ts.OpsEnqueued, ts.OpsDequeued, len(ts.Items))
			}
			if ts.OpsEnqueued > enq {
				unmatched++
			}
			for i := 1; i < len(ts.Items); i++ {
				if ts.Items[i] == ts.Items[i-1] {
					dups++
					break
				}
			}
		}
	}
	if unmatched == 0 || dups == 0 {
		t.Fatalf("streams too tame: %d tenants with unmatched deletes, %d with duplicate survivors", unmatched, dups)
	}
}

// TestFoldFlushesMatchTwoPassRebuild holds the fold to the two-pass
// reference on streams long enough that every tenant's delta is flushed into
// its runs at least ten times before states: a snapshot seed, a key space of
// twelve elements so that each one is enqueued and deleted thousands of
// times over, and rounds biased toward enqueues or toward deletes so that
// either run grows. A delete that reaches the delete run in one flush and
// meets its enqueue in a later one must occur, or the test fails.
func TestFoldFlushesMatchTwoPassRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	item := func() Item { return Item{Priority: uint64(rng.Intn(4)), Value: uint64(rng.Intn(3))} }
	lateEnqueues := 0
	for round, enqueueShare := range []float64{0.5, 0.56, 0.44, 0.5} {
		tenants := []string{"a", "b", "c"}[:1+round%3]
		snap := &Snapshot{CutLSN: 100}
		fed := make([]int, len(tenants)) // items each tenant's records carry
		for _, name := range tenants {
			ts := TenantState{Name: name}
			for n := rng.Intn(3000); n > 0; n-- {
				ts.Items = append(ts.Items, item())
			}
			ts.SortItems()
			ts.OpsEnqueued = uint64(len(ts.Items))
			snap.Tenants = append(snap.Tenants, ts)
		}
		var recs []Record
		for lsn := snap.CutLSN + 1; ; lsn++ {
			tn := rng.Intn(len(tenants))
			r := Record{LSN: lsn, Type: RecDeleteMin, Tenant: tenants[tn], Session: "s"}
			if rng.Float64() < enqueueShare {
				r.Type = RecEnqueue
			}
			for n := 1 + rng.Intn(64); n > 0; n-- {
				r.Items = append(r.Items, item())
			}
			recs = append(recs, r)
			fed[tn] += len(r.Items)
			if slices.Min(fed) >= 12*deltaFloor {
				break
			}
		}

		f := newFold(cloneSnapshot(snap))
		flushes := make(map[string]int)
		for i := range recs {
			r := &recs[i]
			if r.Type == RecEnqueue {
				for _, it := range r.Items {
					if _, found := slices.BinarySearchFunc(f.tenant(r.Tenant).deleted, it, Item.Compare); found {
						lateEnqueues++
					}
				}
			}
			f.apply(r)
			if tf := f.tenants[r.Tenant]; len(tf.adds)+len(tf.dels) == 0 {
				flushes[r.Tenant]++
			}
		}
		got, want := f.states(), Rebuild(snap, recs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: fold across %v flushes differs from the two-pass rebuild", round, flushes)
		}
		for _, name := range tenants {
			if flushes[name] < 10 {
				t.Fatalf("round %d tenant %s: %d flushes, want >= 10", round, name, flushes[name])
			}
		}
	}
	if lateEnqueues == 0 {
		t.Fatalf("no enqueue met a delete already flushed into the delete run")
	}
}

// TestReplayRecordsAreDeepCopies pins the aliasing contract: the scanner
// decodes every frame into one scratch record, so whatever keeps a record
// must have copied it. Scribbling over the scratch record after the scan
// changes nothing already collected, and no two records Replay returns
// share an Items array.
func TestReplayRecordsAreDeepCopies(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{SegmentBytes: 512})
	var image []byte
	for i := 0; i < 40; i++ {
		r := Record{Type: RecEnqueue, Tenant: "t", Session: "s",
			Items: []Item{{Priority: uint64(i), Value: 1}, {Priority: uint64(i), Value: 2}, {Priority: uint64(i), Value: 3}}}
		mustAppend(t, l, r)
		r.LSN = uint64(i + 1)
		image = appendFrame(image, &r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want, _ := DecodeSegment(image, 1)

	var sc scanner
	var kept []Record
	sc.scanSegment(image, 1, func(r *Record) { kept = append(kept, r.clone()) })
	scratch := sc.rec.Items[:cap(sc.rec.Items)]
	for i := range scratch {
		scratch[i] = Item{Priority: ^uint64(0), Value: ^uint64(0)}
	}
	sc.rec.Tenant, sc.rec.Session = "scribbled", "scribbled"
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("cloned records changed with the scratch record")
	}

	recs := replayRecords(t, dir)
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("Replay returned %d records that differ from the %d appended", len(recs), len(want))
	}
	owner := make(map[*Item]int)
	for i := range recs {
		if prev, shared := owner[&recs[i].Items[0]]; shared {
			t.Fatalf("records %d and %d share an Items array", prev, i)
		}
		owner[&recs[i].Items[0]] = i
	}
}

// TestStreamingRecoveryZeroAlloc is the allocation gate on the boot path:
// scanning a warm segment of batch-8 enqueue/delete pairs and folding it
// allocates nothing — no Record, no Items slice, no string, no run growth —
// and because both halves of every pair reach the same delta and cancel
// there, the runs end empty. Streaming the same segment through a window a
// small fraction of its size, so that frames straddle every refill,
// allocates nothing either once the window exists. Boot therefore holds one
// window plus the live state.
func TestStreamingRecoveryZeroAlloc(t *testing.T) {
	const pairs = 512
	var image []byte
	lsn := uint64(0)
	for i := 0; i < pairs; i++ {
		items := make([]Item, 8)
		for j := range items {
			items[j] = Item{Priority: uint64(i % 97), Value: uint64(i*8 + j)}
		}
		for _, typ := range []RecordType{RecEnqueue, RecDeleteMin} {
			lsn++
			image = appendFrame(image, &Record{LSN: lsn, Type: typ, Tenant: "acme", Session: "caller-0", Items: items})
		}
	}
	f := newFold(nil)
	var sc scanner
	visit := f.apply
	scan := func() {
		if good := sc.scanSegment(image, 1, visit); good != len(image) {
			t.Fatalf("scan stopped at %d of %d", good, len(image))
		}
	}
	scan() // warm: the tenant, its map and the scratch Items array now exist
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Fatalf("%v allocs per warm segment of %d records, want 0", allocs, 2*pairs)
	}

	win := make([]byte, 4<<10)
	rd := bytes.NewReader(image)
	stream := func() {
		rd.Reset(image)
		good, size, w, err := sc.scanStream(rd, win, 1, visit)
		if err != nil || good != int64(len(image)) || size != good || len(w) != len(win) {
			t.Fatalf("stream: good %d size %d window %d err %v, want %d, %d, %d, nil", good, size, len(w), err, len(image), len(image), len(win))
		}
	}
	if allocs := testing.AllocsPerRun(20, stream); allocs != 0 {
		t.Fatalf("%v allocs per segment streamed through a warm %d-byte window, want 0", allocs, len(win))
	}
	acme := f.tenants["acme"]
	acme.flush()
	if n := len(acme.st.Items) + len(acme.deleted); n != 0 {
		t.Fatalf("%d elements left in the runs after fully matched pairs", n)
	}
	st := f.states()
	if len(st) != 1 || len(st[0].Items) != 0 || st[0].OpsEnqueued != st[0].OpsDequeued {
		t.Fatalf("folded state %+v", st)
	}
}

// heapAllocated returns the bytes the heap handed out while fn ran.
func heapAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenSegmentsAllocBound is the boot-path memory gate for a long
// journal: Open over eight full 4 MiB segments of batch-8 enqueue/delete
// pairs allocates less than 512 KiB in all. Every segment streams through
// one 64 KiB window and every pair cancels as it is read, so neither the
// segment size nor the journal's length enters what boot allocates.
func TestOpenSegmentsAllocBound(t *testing.T) {
	const segBytes = 4 << 20
	dir := t.TempDir()
	var image []byte
	items := make([]Item, 8)
	lsn := uint64(0)
	for s := 0; s < 8; s++ {
		first := lsn + 1
		image = append(image[:0], segWord...)
		for len(image) < segBytes-512 {
			for j := range items {
				items[j] = Item{Priority: lsn % 97, Value: lsn*8 + uint64(j)}
			}
			for _, typ := range []RecordType{RecEnqueue, RecDeleteMin} {
				lsn++
				image = appendFrame(image, &Record{LSN: lsn, Type: typ, Tenant: "acme", Session: "caller-0", Items: items})
			}
		}
		if err := os.WriteFile(filepath.Join(dir, segName(first)), image, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var l *Log
	var rec *Recovered
	got := heapAllocated(func() { l, rec = testOpen(t, dir, Options{}) })
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != int(lsn) || rec.TornBytes != 0 || len(rec.States) != 1 || len(rec.States[0].Items) != 0 {
		t.Fatalf("recovered %d of %d records, %d torn bytes, states %d", rec.Replayed, lsn, rec.TornBytes, len(rec.States))
	}
	if got >= 512<<10 {
		t.Fatalf("Open of 8 x 4 MiB segments (%d records) allocated %d bytes, want < %d", lsn, got, 512<<10)
	}
}

// TestOpenTailAllocBound is the boot-path memory gate for a journal tail
// that leaves a large queue behind, as a killed daemon's does: four tenants
// each enqueue 26 k elements in batches of 8, then enqueue and deliver
// (in random order) four times as many more, so that 104 k elements survive
// a tail of over 900 k. Open allocates at most 112 bytes per surviving
// element. The fold keeps the unmatched elements in sorted arrays, 16 B per
// element grown by append (85 B per survivor in all here), beside a delta of
// a few thousand items; a fold that keeps them in a map from element to
// count allocates 156 B per survivor here and fails, since an entry costs
// several times 16 B and the deletes' tombstones grow the map further.
func TestOpenTailAllocBound(t *testing.T) {
	const tenants, prefill, rounds = 4, 26_000 / 8, 4 * 26_000 / 8
	rng := rand.New(rand.NewSource(36))
	image := []byte(segWord)
	var live [tenants][]Item // each tenant's enqueued, not yet delivered elements
	lsn, seq := uint64(0), uint64(0)
	appendBatch := func(tn int, typ RecordType) {
		lsn++
		r := Record{LSN: lsn, Type: typ, Tenant: fmt.Sprint("tenant-", tn), Session: "caller-0"}
		for j := 0; j < 8; j++ {
			if typ == RecDeleteMin {
				k := rng.Intn(len(live[tn]))
				r.Items = append(r.Items, live[tn][k])
				live[tn][k] = live[tn][len(live[tn])-1]
				live[tn] = live[tn][:len(live[tn])-1]
				continue
			}
			seq++
			it := Item{Priority: uint64(rng.Int63n(1 << 40)), Value: seq}
			r.Items = append(r.Items, it)
			live[tn] = append(live[tn], it)
		}
		image = appendFrame(image, &r)
	}
	for s := 0; s < prefill*tenants; s++ {
		appendBatch(s%tenants, RecEnqueue)
	}
	for s := 0; s < rounds*tenants; s++ {
		appendBatch(s%tenants, RecEnqueue)
		appendBatch(s%tenants, RecDeleteMin)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), image, 0o644); err != nil {
		t.Fatal(err)
	}
	survivors := 0
	for _, l := range live {
		survivors += len(l)
	}

	var l *Log
	var rec *Recovered
	got := heapAllocated(func() { l, rec = testOpen(t, dir, Options{}) })
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != int(lsn) || len(rec.States) != tenants {
		t.Fatalf("recovered %d of %d records, %d states", rec.Replayed, lsn, len(rec.States))
	}
	for i, st := range rec.States {
		want := slices.Clone(live[i])
		slices.SortFunc(want, Item.Compare)
		if !reflect.DeepEqual(st.Items, want) || st.OpsEnqueued-st.OpsDequeued != uint64(len(want)) {
			t.Fatalf("tenant %s: recovered %d items, want %d", st.Name, len(st.Items), len(want))
		}
	}
	if perElem := float64(got) / float64(survivors); perElem > 112 {
		t.Fatalf("Open of a tail leaving %d elements allocated %d bytes (%.1f per element), want <= 112", survivors, got, perElem)
	}
}

// TestOpenSnapshotAllocBound is the boot-path memory gate for a large
// snapshot: Open over a snapshot of 100 k elements and a short tail that
// deletes some of them and enqueues others allocates at most 40 bytes per
// element plus 256 KiB. The snapshot streams through recovery's 64 KiB
// window into an item array sized from its tenant header (16 B per
// element), which is the fold's enqueue run. Here the tail's deletes free
// room in that array for its enqueues; a tail that grows the queue costs one
// copy of the array grown by append (about 20 B more per element), still
// inside the bound.
func TestOpenSnapshotAllocBound(t *testing.T) {
	const n, tail = 100_000, 64
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	ts := TenantState{Name: "acme", OpsEnqueued: n, Items: make([]Item, n)}
	for i := range ts.Items {
		ts.Items[i] = Item{Priority: uint64(i % 997), Value: uint64(i)}
	}
	ts.SortItems()
	if err := l.WriteSnapshot(&Snapshot{Tenants: []TenantState{ts}}); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(ts.Items[tail:])
	for i := 0; i < tail; i++ {
		fresh := Item{Priority: 1 << 40, Value: uint64(i)}
		mustAppend(t, l, Record{Type: RecDeleteMin, Tenant: "acme", Session: "s", Items: ts.Items[i : i+1]})
		mustAppend(t, l, Record{Type: RecEnqueue, Tenant: "acme", Session: "s", Items: []Item{fresh}})
		want = append(want, fresh)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var rec *Recovered
	got := heapAllocated(func() { l, rec = testOpen(t, dir, Options{}) })
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Replayed != 2*tail || len(rec.States) != 1 {
		t.Fatalf("recovered snapshot %v, %d records, %d states", rec.Snapshot != nil, rec.Replayed, len(rec.States))
	}
	if st := rec.States[0]; !reflect.DeepEqual(st.Items, want) || st.OpsEnqueued != n+tail || st.OpsDequeued != tail {
		t.Fatalf("recovered %d items, ledger enq=%d deq=%d", len(st.Items), st.OpsEnqueued, st.OpsDequeued)
	}
	if limit := uint64(40*n + 256<<10); got > limit {
		t.Fatalf("Open over a %d-element snapshot allocated %d bytes (%.1f per element), want <= %d", n, got, float64(got)/n, limit)
	}
}
