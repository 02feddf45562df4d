package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/heap"
)

// A segment is the 8-byte format word segWord followed by frames. Frame
// layout (all integers little-endian):
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// The CRC uses the Castagnoli polynomial. payloadLen is capped at
// MaxPayload, on the write side (Append refuses a larger record) and on the
// read side, so a corrupt length prefix can never drive a huge allocation
// and recovery's read window never has to hold more than one frame of
// frameHeader+MaxPayload bytes; a frame whose length field exceeds the
// remaining bytes is a torn tail, not an error to propagate. Payload layout:
//
//	u8 type | u64 lsn | u8 len|tenant | u8 len|session | per-type body
//
// Per-type bodies:
//
//	enqueue/deletemin: u32 n | n x (u64 priority, u64 value)
//	counter-add:       u64 count | u64 weight
//	session-close:     (empty)
//
// The codec is canonical: decode rejects any leftover bytes, so
// encode(decode(p)) == p for every accepted payload. That property is what
// lets the fuzz target cross-check the decoder against the encoder.

// MaxPayload bounds a single record payload. The largest legitimate record
// is an enqueue/delete batch of MaxWireBatch (4096) items: ~64KiB. 1MiB
// leaves generous slack without letting a corrupt length prefix allocate
// unbounded memory during replay.
const MaxPayload = 1 << 20

// frameHeader is the fixed prefix of every frame: length plus CRC.
const frameHeader = 8

// maxBatchItems caps the decoded item count of one record, matching the
// wire-level batch cap in dlzd (MaxWireBatch = 4096) with slack.
const maxBatchItems = 1 << 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Item is one priority-queue element as journaled: the same (priority,
// value) pair the wire protocol carries, and the shards' own element type,
// so a snapshot takes the shards' elements as they are.
type Item = heap.Item

// RecordType discriminates journal records. Values are part of the on-disk
// format; never renumber.
type RecordType uint8

const (
	// RecEnqueue journals the items an enqueue-batch request applied.
	RecEnqueue RecordType = 1
	// RecDeleteMin journals the items a delete-min-up-to request delivered.
	RecDeleteMin RecordType = 2
	// RecCounterAdd journals the count and weight a counter/add-batch
	// request applied.
	RecCounterAdd RecordType = 3
	// RecSessionClose journaled a session retirement. dlzd no longer
	// writes it, since it keeps no sessions; the decoder still reads it and
	// replay folds it into nothing, so a journal that holds one recovers.
	// Kind 4 once journaled a shard-count change; the decoder now rejects
	// it as unknown.
	RecSessionClose RecordType = 5
)

// Record is one journal entry. LSN is assigned by Log.Append; the remaining
// fields are set by the caller according to Type:
//
//   - RecEnqueue:    Items = applied elements
//   - RecDeleteMin:  Items = delivered elements
//   - RecCounterAdd: Count = deltas applied, Weight = their sum
//   - RecSessionClose: identification fields only
type Record struct {
	LSN    uint64
	Type   RecordType
	Tenant string
	// Session stays in the format; dlzd, which keeps no sessions, writes
	// it empty.
	Session string
	Items   []Item
	Count   uint64
	Weight  uint64
	// Metered is neither encoded nor decoded: it once journaled the
	// operations a tenant quota charged, and is kept only because the
	// benchmark still sets it. It goes with the benchmark's next change.
	Metered uint64
}

// appendFrame appends the framed encoding of r to dst and returns the
// extended slice.
func appendFrame(dst []byte, r *Record) []byte {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholders
	dst = appendPayload(dst, r)
	payload := dst[head+frameHeader:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

func appendPayload(dst []byte, r *Record) []byte {
	dst = append(dst, byte(r.Type))
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = appendShortString(dst, r.Tenant)
	dst = appendShortString(dst, r.Session)
	switch r.Type {
	case RecEnqueue, RecDeleteMin:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Items)))
		for _, it := range r.Items {
			dst = binary.LittleEndian.AppendUint64(dst, it.Priority)
			dst = binary.LittleEndian.AppendUint64(dst, it.Value)
		}
	case RecCounterAdd:
		dst = binary.LittleEndian.AppendUint64(dst, r.Count)
		dst = binary.LittleEndian.AppendUint64(dst, r.Weight)
	case RecSessionClose:
	}
	return dst
}

// appendShortString appends a u8 length prefix plus up to 255 bytes of s.
// Tenant names are validated to 64 bytes upstream; session tokens are
// client-chosen and journaled for history only, so truncation is safe.
func appendShortString(dst []byte, s string) []byte {
	if len(s) > 255 {
		s = s[:255]
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

// decodeInto parses one record payload into r, overwriting every encoded
// field. It is strict: unknown types, short bodies, oversized batches, and
// leftover trailing bytes are all errors, making the accepted encoding
// canonical.
//
// r is recycled, not rebuilt: Items is refilled in place over its backing
// array and the tenant/session strings are kept when the payload repeats
// them, so a scan over records like the previous one allocates nothing.
// Whoever keeps a decoded record past the next decodeInto must clone it.
func decodeInto(r *Record, p []byte) error {
	if len(p) < 1+8 {
		return fmt.Errorf("wal: payload too short (%d bytes)", len(p))
	}
	r.Type = RecordType(p[0])
	r.LSN = binary.LittleEndian.Uint64(p[1:])
	r.Items = r.Items[:0]
	r.Count, r.Weight = 0, 0
	p = p[9:]
	var err error
	if r.Tenant, p, err = cutShortString(p, r.Tenant); err != nil {
		return fmt.Errorf("wal: tenant: %w", err)
	}
	if r.Session, p, err = cutShortString(p, r.Session); err != nil {
		return fmt.Errorf("wal: session: %w", err)
	}
	switch r.Type {
	case RecEnqueue, RecDeleteMin:
		if len(p) < 4 {
			return fmt.Errorf("wal: truncated item count")
		}
		n := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if n > maxBatchItems {
			return fmt.Errorf("wal: item count %d exceeds cap", n)
		}
		if uint64(len(p)) != uint64(n)*16 {
			return fmt.Errorf("wal: item body length %d != %d items", len(p), n)
		}
		for ; n > 0; n-- {
			r.Items = append(r.Items, Item{
				Priority: binary.LittleEndian.Uint64(p),
				Value:    binary.LittleEndian.Uint64(p[8:]),
			})
			p = p[16:]
		}
	case RecCounterAdd:
		if len(p) != 16 {
			return fmt.Errorf("wal: counter body length %d", len(p))
		}
		r.Count = binary.LittleEndian.Uint64(p)
		r.Weight = binary.LittleEndian.Uint64(p[8:])
		p = p[16:]
	case RecSessionClose:
	default:
		return fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	if len(p) != 0 {
		return fmt.Errorf("wal: %d trailing payload bytes", len(p))
	}
	return nil
}

// cutShortString cuts one length-prefixed string off p. It returns prev
// itself when the bytes spell prev (the comparison does not allocate), a
// fresh string otherwise.
func cutShortString(p []byte, prev string) (string, []byte, error) {
	if len(p) < 1 {
		return "", nil, fmt.Errorf("missing length byte")
	}
	n := int(p[0])
	if len(p) < 1+n {
		return "", nil, fmt.Errorf("length %d exceeds %d remaining bytes", n, len(p)-1)
	}
	if string(p[1:1+n]) == prev {
		return prev, p[1+n:], nil
	}
	return string(p[1 : 1+n]), p[1+n:], nil
}

// clone returns a copy of r that shares no memory with it: the one thing a
// visitor must do to keep a record the scanner handed it.
func (r *Record) clone() Record {
	c := *r
	c.Items = append([]Item(nil), r.Items...) // nil when r has no items
	return c
}

// scanner walks segments record by record. It owns the one Record every
// frame is decoded into, so the Items backing array and the tenant/session
// strings carry over from frame to frame and from segment to segment. It
// also owns the LSN chain, so a chain checked across one slice of a segment
// carries on into the next slice when a window is refilled.
type scanner struct {
	rec    Record
	next   uint64 // the LSN the next record must carry, once pinned
	pinned bool
}

// scanStream scans one segment read from r and calls visit for every valid
// record up to the first invalid or torn frame, returning the byte offset
// of that frame (goodLen == size when the whole segment is valid; recovery
// truncates the file there) and the number of bytes r held, so size-goodLen
// is the torn tail. wantFirst, when nonzero, pins the required LSN of the
// first record (segments are named by it); every subsequent record must
// extend the sequence by exactly one — a skip, repeat, or regression is
// treated as corruption at that frame. The record passed to visit is the
// scanner's scratch record and is overwritten by the next frame. The
// scanner never panics on arbitrary input.
//
// The segment passes through the window win, never whole: the window is
// filled from r and scanned, a frame cut by the window's end is moved to its
// front and completed by the next read, and a frame longer than the window
// (at most frameHeader+MaxPayload bytes) grows it to fit. The window, grown
// or not, is handed back for the next segment.
func (sc *scanner) scanStream(r io.Reader, win []byte, wantFirst uint64, visit func(*Record)) (goodLen, size int64, _ []byte, err error) {
	sc.next, sc.pinned = wantFirst, wantFirst != 0
	n, eof := 0, false // win[:n] holds the segment's bytes from goodLen on
	read := func(p []byte) int {
		m, rerr := r.Read(p)
		size += int64(m)
		if rerr == io.EOF {
			eof = true
		} else if rerr != nil {
			err = rerr
		}
		return m
	}
	for {
		for !eof && err == nil && n < len(win) {
			n += read(win[n:])
		}
		if err != nil {
			return goodLen, size, win, err
		}
		off := sc.scan(win[:n], visit)
		goodLen += int64(off)
		rest := win[off:n]
		need := frameHeader // the bytes the frame at off needs to be whole
		if len(rest) >= frameHeader {
			need += int(binary.LittleEndian.Uint32(rest))
		}
		if eof || len(rest) >= need || need > frameHeader+MaxPayload {
			break // the end of the segment, or a whole frame that failed a check
		}
		n = copy(win, rest)
		if need > len(win) {
			grown := make([]byte, need)
			copy(grown, win[:n])
			win = grown
		}
	}
	for !eof && err == nil { // count the bytes behind the stop: the torn tail
		read(win)
	}
	return goodLen, size, win, err
}

// scan calls visit for every valid record of data in order and returns the
// offset of the first frame that fails a check or does not lie wholly
// inside data. The LSN chain continues from wherever the scanner's last
// record left it.
func (sc *scanner) scan(data []byte, visit func(*Record)) int {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			return off // torn header
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen > MaxPayload || len(data)-off-frameHeader < plen {
			return off // absurd or torn length
		}
		payload := data[off+frameHeader : off+frameHeader+plen]
		if crc32.Checksum(payload, castagnoli) != crc {
			return off
		}
		if err := decodeInto(&sc.rec, payload); err != nil {
			return off
		}
		if sc.pinned && sc.rec.LSN != sc.next {
			return off // LSN discontinuity: duplicated or spliced frames
		}
		sc.pinned = true
		sc.next = sc.rec.LSN + 1
		visit(&sc.rec)
		off += frameHeader + plen
	}
	return off
}
