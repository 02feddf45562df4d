package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at the segment scanner: torn tails,
// bit-flipped CRCs, truncated length prefixes, spliced duplicate suffixes.
// The scanner must never panic, must stop at the first invalid frame, must
// yield exactly the records and goodLen the reference DecodeSegment does,
// and — because the codec is canonical — re-encoding what it accepted must
// reproduce exactly the bytes it consumed. The windowed scan recovery runs
// reads the same bytes through windows of 9 to 64 bytes, so frames straddle
// refills and outgrow the window, and must agree with the reference on the
// records, goodLen and the torn byte count.
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
	// Seeds for the windowed scan (windows of 9, 9+len%56 and 64 bytes). The
	// 41-byte counter add followed by the 61-byte enqueue: the enqueue
	// straddles the first refill of the 64-byte window.
	recs := sampleFuzzRecords()
	add, enq := recs[1], recs[0]
	add.LSN, enq.LSN = 1, 2
	f.Add(appendFrame(appendFrame(nil, &add), &enq))
	// A 157-byte enqueue of eight items, longer than every window.
	long := Record{LSN: 1, Type: RecEnqueue, Tenant: "acme", Session: "s1"}
	for i := uint64(0); i < 8; i++ {
		long.Items = append(long.Items, Item{Priority: i, Value: 10 * i})
	}
	f.Add(appendFrame(appendFrame(nil, &long), &Record{LSN: 2, Type: RecSessionClose, Tenant: "acme", Session: "s1"}))
	// Two 32-byte frames fill the 64-byte window exactly; the third frame is
	// torn right behind that refill boundary, after its header.
	var boundary []byte
	for lsn := uint64(1); lsn <= 3; lsn++ {
		boundary = appendFrame(boundary, &Record{LSN: lsn, Type: RecSessionClose, Tenant: "acme", Session: "boundary!"})
	}
	f.Add(boundary[:64+frameHeader])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := scanAll(data, 0)
		if good < 0 || good > len(data) {
			t.Fatalf("goodLen %d out of range [0,%d]", good, len(data))
		}
		want, wantGood := DecodeSegment(data, 0)
		if good != wantGood || !reflect.DeepEqual(recs, want) {
			t.Fatalf("scanner yielded %d records to offset %d, reference %d to %d", len(recs), good, len(want), wantGood)
		}
		for _, w := range []int{9, 9 + len(data)%56, 64} {
			got, good, size, err := streamAll(data, 0, w)
			if err != nil || good != int64(wantGood) || size-good != int64(len(data)-wantGood) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-byte window yielded %d records to offset %d with %d torn bytes (err %v), reference %d to %d with %d",
					w, len(got), good, size-good, err, len(want), wantGood, len(data)-wantGood)
			}
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
// panic the streaming decoder, and that accepted payloads are canonical. The
// same bytes are also read as a whole snapshot file, through the path
// recovery takes: accepted only with a matching length and CRC, and then
// holding exactly what its payload decodes to.
func FuzzSnapshotDecode(f *testing.F) {
	valid := encodeSnapshot(nil, &Snapshot{
		CutLSN: 42,
		Tenants: []TenantState{
			{Name: "a", Items: []Item{{Priority: 1, Value: 1}, {Priority: 2, Value: 2}}, CounterSum: 3,
				OpsEnqueued: 2, OpsDequeued: 0, OpsCounterAdds: 1,
				CounterDeltaSum: 3},
			{Name: "b"},
		},
	})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x01
	f.Add(flip)
	file := binary.LittleEndian.AppendUint32(nil, uint32(len(valid)))
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(valid, castagnoli))
	file = append(file, valid...)
	f.Add(file)
	f.Add(file[:100]) // a snapshot file cut short inside the first tenant's items
	badCRC := append([]byte(nil), file...)
	badCRC[4] ^= 0x01 // a canonical payload under a wrong CRC
	f.Add(badCRC)

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := readSnapshot(bytes.NewReader(data), int64(len(data))); err == nil && !bytes.Equal(encodeSnapshot(nil, s), data) {
			t.Fatalf("accepted snapshot payload not canonical")
		}
		s, err := readSnapshotFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		payload := data[frameHeader:]
		if binary.LittleEndian.Uint32(data) != uint32(len(payload)) || binary.LittleEndian.Uint32(data[4:]) != crc32.Checksum(payload, castagnoli) {
			t.Fatalf("snapshot file accepted with a wrong length or CRC")
		}
		if !bytes.Equal(encodeSnapshot(nil, s), payload) {
			t.Fatalf("accepted snapshot file not canonical")
		}
	})
}

func sampleFuzzRecords() []Record {
	return []Record{
		{Type: RecEnqueue, Tenant: "acme", Session: "s1",
			Items: []Item{{Priority: 5, Value: 50}, {Priority: 3, Value: 30}}},
		{Type: RecCounterAdd, Tenant: "acme", Session: "s1", Count: 3, Weight: 12},
		{Type: RecDeleteMin, Tenant: "acme", Session: "s2", Items: []Item{{Priority: 3, Value: 30}}},
		{Type: RecSessionClose, Tenant: "acme", Session: "s1"},
	}
}
