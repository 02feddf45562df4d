package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
)

// Reference models. These are the allocating segment decoder and the
// two-pass rebuild that recovery ran before it became a stream, kept to be
// compared against: the fuzz target holds the scanner to DecodeSegment on
// every input, the differential property test holds the fold to Rebuild on
// random streams. They share nothing with the code under test but the
// encoder, cutShortString and SortItems.

// decodePayload parses one record payload into a fresh Record.
func decodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 1+8 {
		return r, fmt.Errorf("wal: payload too short (%d bytes)", len(p))
	}
	r.Type = RecordType(p[0])
	r.LSN = binary.LittleEndian.Uint64(p[1:])
	p = p[9:]
	var err error
	if r.Tenant, p, err = cutShortString(p, ""); err != nil {
		return r, fmt.Errorf("wal: tenant: %w", err)
	}
	if r.Session, p, err = cutShortString(p, ""); err != nil {
		return r, fmt.Errorf("wal: session: %w", err)
	}
	switch r.Type {
	case RecEnqueue, RecDeleteMin:
		if len(p) < 4 {
			return r, fmt.Errorf("wal: truncated item count")
		}
		n := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if n > maxBatchItems {
			return r, fmt.Errorf("wal: item count %d exceeds cap", n)
		}
		if uint64(len(p)) != uint64(n)*16+8 {
			return r, fmt.Errorf("wal: item body length %d != %d items", len(p), n)
		}
		if n > 0 {
			r.Items = make([]Item, n)
			for i := range r.Items {
				r.Items[i].Priority = binary.LittleEndian.Uint64(p)
				r.Items[i].Value = binary.LittleEndian.Uint64(p[8:])
				p = p[16:]
			}
		}
		r.Metered = binary.LittleEndian.Uint64(p)
		p = p[8:]
	case RecCounterAdd:
		if len(p) != 24 {
			return r, fmt.Errorf("wal: counter body length %d", len(p))
		}
		r.Count = binary.LittleEndian.Uint64(p)
		r.Weight = binary.LittleEndian.Uint64(p[8:])
		r.Metered = binary.LittleEndian.Uint64(p[16:])
		p = p[24:]
	case RecSessionClose:
	default:
		return r, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	if len(p) != 0 {
		return r, fmt.Errorf("wal: %d trailing payload bytes", len(p))
	}
	return r, nil
}

// DecodeSegment returns every valid record of a segment image up to the
// first invalid or torn frame, and that frame's byte offset.
func DecodeSegment(data []byte, wantFirst uint64) (recs []Record, goodLen int) {
	next := wantFirst
	pinned := wantFirst != 0
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			return recs, off // torn header
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen > MaxPayload || len(data)-off-frameHeader < plen {
			return recs, off // absurd or torn length
		}
		payload := data[off+frameHeader : off+frameHeader+plen]
		if crc32.Checksum(payload, castagnoli) != crc {
			return recs, off
		}
		r, err := decodePayload(payload)
		if err != nil {
			return recs, off
		}
		if pinned && r.LSN != next {
			return recs, off // LSN discontinuity: duplicated or spliced frames
		}
		pinned = true
		next = r.LSN + 1
		recs = append(recs, r)
		off += frameHeader + plen
	}
	return recs, off
}

// Rebuild folds a snapshot plus its replayed journal tail into per-tenant
// logical state in two passes over a multiset that holds every element the
// records mention: pass one applies every enqueue and counter add,
// pass two matches the delete-min records against the multiset, and a
// delete that finds no element credits a compensating enqueue.
func Rebuild(snap *Snapshot, records []Record) []TenantState {
	type acc struct {
		st        TenantState
		multiset  map[Item]int64
		unmatched uint64
	}
	accs := make(map[string]*acc)
	get := func(name string) *acc {
		a := accs[name]
		if a == nil {
			a = &acc{st: TenantState{Name: name}, multiset: make(map[Item]int64)}
			accs[name] = a
		}
		return a
	}
	if snap != nil {
		for i := range snap.Tenants {
			t := &snap.Tenants[i]
			a := get(t.Name)
			a.st = *t
			for _, it := range t.Items {
				a.multiset[it]++
			}
			a.st.Items = nil
		}
	}
	for i := range records {
		r := &records[i]
		a := get(r.Tenant)
		switch r.Type {
		case RecEnqueue:
			for _, it := range r.Items {
				a.multiset[it]++
			}
			a.st.OpsEnqueued += uint64(len(r.Items))
			a.st.OpsMetered += r.Metered
		case RecCounterAdd:
			a.st.OpsCounterAdds += r.Count
			a.st.CounterDeltaSum += r.Weight
			a.st.CounterSum += r.Weight
			a.st.OpsMetered += r.Metered
		}
	}
	for i := range records {
		r := &records[i]
		if r.Type != RecDeleteMin {
			continue
		}
		a := get(r.Tenant)
		for _, it := range r.Items {
			if a.multiset[it] > 0 {
				a.multiset[it]--
			} else {
				a.unmatched++
			}
		}
		a.st.OpsDequeued += uint64(len(r.Items))
		a.st.OpsMetered += r.Metered
	}
	out := make([]TenantState, 0, len(accs))
	for _, a := range accs {
		a.st.OpsEnqueued += a.unmatched
		for it, n := range a.multiset {
			for ; n > 0; n-- {
				a.st.Items = append(a.st.Items, it)
			}
		}
		a.st.SortItems()
		out = append(out, a.st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
