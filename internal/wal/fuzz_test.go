package wal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at the segment scanner: torn tails,
// bit-flipped CRCs, truncated length prefixes, spliced duplicate suffixes.
// The scanner must never panic, must stop at the first invalid frame, must
// yield exactly the records and goodLen the reference DecodeSegment does,
// and — because the codec is canonical — re-encoding what it accepted must
// reproduce exactly the bytes it consumed.
func FuzzWALReplay(f *testing.F) {
	// Seed with valid segment images and targeted corruptions of them.
	var seedFrames []byte
	for i, r := range sampleFuzzRecords() {
		r.LSN = uint64(i + 1)
		seedFrames = appendFrame(seedFrames, &r)
	}
	f.Add(seedFrames)
	f.Add([]byte{})
	f.Add(seedFrames[:len(seedFrames)-5]) // torn tail
	flip := append([]byte(nil), seedFrames...)
	flip[len(flip)/3] ^= 0x10 // bit flip mid-record
	f.Add(flip)
	f.Add(seedFrames[:3])                                            // truncated length prefix
	f.Add(append(append([]byte(nil), seedFrames...), seedFrames...)) // duplicate suffix: LSNs restart
	huge := append([]byte(nil), seedFrames...)
	huge[0] = 0xff // absurd length field
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := scanAll(data, 0)
		if good < 0 || good > len(data) {
			t.Fatalf("goodLen %d out of range [0,%d]", good, len(data))
		}
		if want, wantGood := DecodeSegment(data, 0); good != wantGood || !reflect.DeepEqual(recs, want) {
			t.Fatalf("scanner yielded %d records to offset %d, reference %d to %d", len(recs), good, len(want), wantGood)
		}
		// Canonical re-encode: the accepted prefix must round-trip
		// byte-for-byte.
		var re []byte
		for i := range recs {
			re = appendFrame(re, &recs[i])
		}
		if !bytes.Equal(re, data[:good]) {
			t.Fatalf("re-encode mismatch: %d records, goodLen %d", len(recs), good)
		}
		// LSNs must be contiguous after the first.
		for i := 1; i < len(recs); i++ {
			if recs[i].LSN != recs[i-1].LSN+1 {
				t.Fatalf("non-contiguous LSNs %d -> %d", recs[i-1].LSN, recs[i].LSN)
			}
		}
	})
}

// FuzzSnapshotDecode makes sure an arbitrary snapshot payload can never
// panic the decoder, and that accepted payloads are canonical.
func FuzzSnapshotDecode(f *testing.F) {
	valid := encodeSnapshot(&Snapshot{
		CutLSN: 42,
		Tenants: []TenantState{
			{Name: "a", M: 4, Items: []Item{{1, 1}, {2, 2}}, CounterSum: 3,
				OpsEnqueued: 2, OpsDequeued: 0, OpsCounterAdds: 1,
				CounterDeltaSum: 3, OpsMetered: 3},
			{Name: "b"},
		},
	})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x01
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeSnapshot(s), data) {
			t.Fatalf("accepted snapshot payload not canonical")
		}
	})
}

func sampleFuzzRecords() []Record {
	return []Record{
		{Type: RecEnqueue, Tenant: "acme", Session: "s1",
			Items: []Item{{5, 50}, {3, 30}}, Metered: 2},
		{Type: RecCounterAdd, Tenant: "acme", Session: "s1", Count: 3, Weight: 12, Metered: 3},
		{Type: RecDeleteMin, Tenant: "acme", Session: "s2", Items: []Item{{3, 30}}, Metered: 1},
		{Type: RecResize, Tenant: "acme", M: 8},
		{Type: RecSessionClose, Tenant: "acme", Session: "s1"},
	}
}
