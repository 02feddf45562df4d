package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The on-disk format, pinned byte for byte. The fuzzers and round-trip
// tests hold the decoder to the encoder, so a change to both passes them;
// these literals do not move with the code, so a format change fails here on
// purpose and has to come with a new format word.

// goldenSegWord is the 8 bytes every segment starts with.
var goldenSegWord = []byte{'D', 'L', 'Z', 'J', 'R', 'N', 'L', '3'}

// goldenFrames is one framed record of each kind, in LSN order.
var goldenFrames = []struct {
	rec   Record
	frame []byte
}{
	{Record{LSN: 1, Type: RecEnqueue, Tenant: "acme", Session: "s1", Items: []Item{{Priority: 5, Value: 50}, {Priority: 3, Value: 30}}}, []byte{
		0x35, 0x00, 0x00, 0x00, // payload length 53
		0x5a, 0xd7, 0xcf, 0xa6, // crc32c of the payload
		0x01,                                           // type: enqueue
		0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lsn 1
		0x04, 'a', 'c', 'm', 'e', // tenant
		0x02, 's', '1', // session
		0x02, 0x00, 0x00, 0x00, // two items
		0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // priority 5
		0x32, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // value 50
		0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // priority 3
		0x1e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // value 30
	}},
	{Record{LSN: 2, Type: RecDeleteMin, Tenant: "acme", Session: "s2", Items: []Item{{Priority: 3, Value: 30}}}, []byte{
		0x25, 0x00, 0x00, 0x00, // payload length 37
		0x09, 0xb9, 0x2b, 0x47, // crc32c of the payload
		0x02,                                           // type: delete-min
		0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lsn 2
		0x04, 'a', 'c', 'm', 'e', // tenant
		0x02, 's', '2', // session
		0x01, 0x00, 0x00, 0x00, // one item
		0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // priority 3
		0x1e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // value 30
	}},
	{Record{LSN: 3, Type: RecCounterAdd, Tenant: "acme", Session: "s1", Count: 3, Weight: 12}, []byte{
		0x21, 0x00, 0x00, 0x00, // payload length 33
		0x20, 0xbd, 0x59, 0xc7, // crc32c of the payload
		0x03,                                           // type: counter-add
		0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lsn 3
		0x04, 'a', 'c', 'm', 'e', // tenant
		0x02, 's', '1', // session
		0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count 3
		0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // weight 12
	}},
	{Record{LSN: 4, Type: RecSessionClose, Tenant: "acme", Session: "s1"}, []byte{
		0x11, 0x00, 0x00, 0x00, // payload length 17
		0xfc, 0x49, 0xbb, 0x65, // crc32c of the payload
		0x05,                                           // type: session-close
		0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lsn 4
		0x04, 'a', 'c', 'm', 'e', // tenant
		0x02, 's', '1', // session
	}},
}

// goldenSnapshot is the state goldenFrames leave, and goldenSnapFile the
// snapshot file WriteSnapshot makes of it.
var goldenSnapshot = &Snapshot{CutLSN: 4, Tenants: []TenantState{{Name: "acme", Items: []Item{{Priority: 5, Value: 50}},
	CounterSum: 12, OpsEnqueued: 2, OpsDequeued: 1, OpsCounterAdds: 3, CounterDeltaSum: 12}}}

var goldenSnapFile = []byte{
	0x55, 0x00, 0x00, 0x00, // payload length 85
	0x53, 0x71, 0x17, 0x84, // crc32c of the payload
	'D', 'L', 'Z', 'S', 'N', 'A', 'P', '3', // magic
	0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // cut lsn 4
	0x01, 0x00, 0x00, 0x00, // one tenant
	0x04, 'a', 'c', 'm', 'e', // name
	0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // counter sum 12
	0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // ops enqueued 2
	0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // ops dequeued 1
	0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // counter adds 3
	0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // counter delta sum 12
	0x01, 0x00, 0x00, 0x00, // one item
	0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // priority 5
	0x32, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // value 50
}

// TestOnDiskFormatGolden holds the files the journal writes to the literals
// above: a segment is the format word and the frames, each frame decodes to
// the record it pins, and a snapshot file is exactly the pinned bytes and
// reads back as the state they encode.
func TestOnDiskFormatGolden(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	wantSeg := slices.Clone(goldenSegWord)
	for i, g := range goldenFrames {
		r := g.rec
		r.LSN = 0
		if lsn := mustAppend(t, l, r); lsn != g.rec.LSN {
			t.Fatalf("record %d got LSN %d, want %d", i, lsn, g.rec.LSN)
		}
		if got := appendFrame(nil, &g.rec); !bytes.Equal(got, g.frame) {
			t.Fatalf("%v frame\n got % x\nwant % x", g.rec.Type, got, g.frame)
		}
		if recs, good := scanAll(g.frame, g.rec.LSN); good != len(g.frame) || len(recs) != 1 || !reflect.DeepEqual(recs[0], g.rec) {
			t.Fatalf("%v frame decodes to %+v (%d of %d bytes), want %+v", g.rec.Type, recs, good, len(g.frame), g.rec)
		}
		wantSeg = append(wantSeg, g.frame...)
	}
	if err := l.WriteSnapshot(goldenSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if seg, err := os.ReadFile(filepath.Join(dir, segName(1))); err != nil || !bytes.Equal(seg, wantSeg) {
		t.Fatalf("segment file (err %v)\n got % x\nwant % x", err, seg, wantSeg)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapName(4)))
	if err != nil || !bytes.Equal(snap, goldenSnapFile) {
		t.Fatalf("snapshot file (err %v)\n got % x\nwant % x", err, snap, goldenSnapFile)
	}
	if s, err := readSnapshotFile(bytes.NewReader(goldenSnapFile), int64(len(goldenSnapFile))); err != nil || !reflect.DeepEqual(s, goldenSnapshot) {
		t.Fatalf("golden snapshot reads back as %+v, %v", s, err)
	}
}

// The journal of the format before DLZJRNL3, written by that build: a
// segment without a format word whose enqueue and counter-add records end in
// a metered-operations word, and a DLZSNAP2 snapshot whose tenants carry it
// too.
var (
	earlierSegment = []byte{
		0x2d, 0x00, 0x00, 0x00, 0x0f, 0x5d, 0xc0, 0x0c, // frame header
		0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 'a', 'c', 'm', 'e', 0x02, 's', '1',
		0x01, 0x00, 0x00, 0x00, // one item
		0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x32, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // metered 1
		0x29, 0x00, 0x00, 0x00, 0x91, 0x8f, 0xb7, 0xe0, // frame header
		0x03, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 'a', 'c', 'm', 'e', 0x02, 's', '1',
		0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // metered 3
	}
	earlierSnapshot = []byte{
		0x5d, 0x00, 0x00, 0x00, 0x70, 0x87, 0xda, 0xa8, // frame header
		'D', 'L', 'Z', 'S', 'N', 'A', 'P', '2',
		0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 'a', 'c', 'm', 'e',
		0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // metered 4
		0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x32, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	}
)

// TestEarlierFormatRefused: a journal in the format before this one, even one
// left by a clean shutdown, is refused by Open and Replay with an error that
// names the file and the format found in it, and recovery touches no file.
// Read as torn instead, it would come back empty.
func TestEarlierFormatRefused(t *testing.T) {
	seg, snap := segName(1), snapName(2)
	for _, tc := range []struct {
		name  string
		files map[string][]byte
		want  []string // in the error
	}{
		{"segment", map[string][]byte{seg: earlierSegment}, []string{seg, "no format word"}},
		{"snapshot", map[string][]byte{snap: earlierSnapshot}, []string{snap, "format DLZSNAP2"}},
		{"both", map[string][]byte{seg: earlierSegment, snap: earlierSnapshot}, []string{snap, "format DLZSNAP2"}},
	} {
		dir := t.TempDir()
		for name, b := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := Open(Options{Dir: dir})
		_, _, rerr := Replay(dir)
		for _, e := range []error{err, rerr} {
			if !errors.Is(e, errFormat) {
				t.Fatalf("%s: err %v, want a format error", tc.name, e)
			}
			for _, w := range tc.want {
				if !strings.Contains(e.Error(), w) {
					t.Fatalf("%s: err %q does not name %q", tc.name, e, w)
				}
			}
		}
		entries, _ := os.ReadDir(dir)
		if len(entries) != len(tc.files) {
			t.Fatalf("%s: directory holds %d files after the refusal, want %d", tc.name, len(entries), len(tc.files))
		}
		for name, b := range tc.files {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, b) {
				t.Fatalf("%s: %s changed by the refused recovery (err %v)", tc.name, name, err)
			}
		}
	}
}

// TestShortSegmentIsTorn: a segment shorter than the format word is a crash
// while it was created. Recovery reads it as an empty torn segment, not as
// another format, and truncates it.
func TestShortSegmentIsTorn(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{})
	mustAppend(t, l, goldenFrames[3].rec)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), goldenSegWord[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := testOpen(t, dir, Options{})
	if rec.Replayed != 1 || rec.Head != 1 || rec.TornBytes != 5 || rec.SegmentsDropped != 0 {
		t.Fatalf("recovered %d records to head %d with %d torn bytes and %d dropped segments, want 1, 1, 5, 0",
			rec.Replayed, rec.Head, rec.TornBytes, rec.SegmentsDropped)
	}
	mustAppend(t, l, goldenFrames[3].rec)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if seg, err := os.ReadFile(filepath.Join(dir, segName(2))); err != nil || !bytes.HasPrefix(seg, goldenSegWord) {
		t.Fatalf("the segment recreated at LSN 2 does not start with the format word: % x (err %v)", seg, err)
	}
}
