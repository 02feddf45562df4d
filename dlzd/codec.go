package dlzd

// The data plane's JSON codec (DESIGN.md §8, "Connection loop"). The three
// hot request bodies decode through a hand scanner that accepts only what a
// Go client's json.Marshal — or any client writing the documented shape —
// produces, and DECLINES everything else: string escapes, non-ASCII bytes,
// keys in another case, duplicate or unknown keys, null, and numbers that are
// not plain unsigned decimals. A declined body is decoded by the strict
// json.Decoder the daemon always used, and counted
// (dlzd_wire_decode_fallback_total), so the scanner never has to agree with
// encoding/json about an error: it only has to agree about what it accepts,
// which FuzzWireDecode checks. The five data-plane answers are appended
// byte-for-byte as json.Encoder writes them, trailing newline included.

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// wireRequest is a decoded hot request body: the one payload its operation
// carries. items and deltas reuse the scratch's backing arrays across
// requests. A "session" key is checked for shape and otherwise ignored.
type wireRequest struct {
	items  []WireItem // enqueue-batch
	deltas []uint64   // counter/add-batch
	max    int        // delete-min-up-to
}

// hotOp names the three requests the scanner knows.
type hotOp uint8

const (
	hotEnqueueBatch hotOp = iota
	hotDeleteMinUpTo
	hotCounterAddBatch
)

// scanner is a cursor over one request body.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace and reports whether a byte follows it.
func (p *scanner) ws() bool {
	for ; p.i < len(p.b); p.i++ {
		if c := p.b[p.i]; c != ' ' && c != '\n' && c != '\r' && c != '\t' {
			return true
		}
	}
	return false
}

// next skips JSON whitespace and consumes one byte; at the end it returns 0,
// which no caller expects.
func (p *scanner) next() byte {
	if !p.ws() {
		return 0
	}
	p.i++
	return p.b[p.i-1]
}

// peek is next without consuming.
func (p *scanner) peek() byte {
	if !p.ws() {
		return 0
	}
	return p.b[p.i]
}

// str scans a string whose bytes are its value: printable ASCII, no escapes.
func (p *scanner) str() ([]byte, bool) {
	if p.next() != '"' {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '\\' || c < 0x20 || c >= 0x7f:
			return nil, false
		}
	}
	return nil, false
}

// u64 scans a plain unsigned decimal: no sign, fraction, exponent or leading
// zero, at most 2^64−1. The byte after it is left for the caller, so "1e3"
// or "4.0" decline there.
func (p *scanner) u64() (uint64, bool) {
	c := p.next()
	if c < '0' || c > '9' {
		return 0, false
	}
	v := uint64(c - '0')
	if v == 0 {
		return 0, p.i == len(p.b) || p.b[p.i] < '0' || p.b[p.i] > '9'
	}
	for ; p.i < len(p.b); p.i++ {
		d := uint64(p.b[p.i] - '0')
		if d > 9 {
			break
		}
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// object walks one JSON object, calling field with each key after its colon.
// It declines when field does, and on anything but `{"k":v,...}`.
func (p *scanner) object(field func(key []byte) bool) bool {
	if p.next() != '{' {
		return false
	}
	if p.peek() == '}' {
		p.i++
		return true
	}
	for {
		key, ok := p.str()
		if !ok || p.next() != ':' || !field(key) {
			return false
		}
		switch p.next() {
		case '}':
			return true
		case ',':
		default:
			return false
		}
	}
}

// array walks one JSON array, calling elem at the start of each element.
func (p *scanner) array(elem func() bool) bool {
	if p.next() != '[' {
		return false
	}
	if p.peek() == ']' {
		p.i++
		return true
	}
	for {
		if !elem() {
			return false
		}
		switch p.next() {
		case ']':
			return true
		case ',':
		default:
			return false
		}
	}
}

// once marks bit in seen, declining a key that was already seen: the
// json.Decoder keeps a duplicate's last value, which the scanner leaves to it.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// scan decodes body as op's request into rq, reporting false (decline) on any
// input outside the canonical shape. rq is garbage after a decline.
func (rq *wireRequest) scan(op hotOp, body []byte) bool {
	p := scanner{b: body}
	rq.items, rq.deltas, rq.max = rq.items[:0], rq.deltas[:0], 0
	var seen uint8
	ok := p.object(func(key []byte) bool {
		switch {
		case string(key) == "session":
			_, ok := p.str()
			return ok && once(&seen, 1)
		case op == hotEnqueueBatch && string(key) == "items":
			return once(&seen, 2) && p.array(func() bool {
				var it WireItem
				var seen uint8
				ok := p.object(func(key []byte) bool {
					var ok bool
					switch string(key) {
					case "priority":
						it.Priority, ok = p.u64()
						return ok && once(&seen, 1)
					case "value":
						it.Value, ok = p.u64()
						return ok && once(&seen, 2)
					}
					return false
				})
				rq.items = append(rq.items, it)
				// A batch past the cap is refused either way; declining keeps
				// the scratch a connection retains bounded by the cap.
				return ok && len(rq.items) <= MaxWireBatch
			})
		case op == hotDeleteMinUpTo && string(key) == "max":
			v, ok := p.u64()
			rq.max = int(v)
			return ok && v <= math.MaxInt && once(&seen, 2)
		case op == hotCounterAddBatch && string(key) == "deltas":
			return once(&seen, 2) && p.array(func() bool {
				d, ok := p.u64()
				rq.deltas = append(rq.deltas, d)
				return ok && len(rq.deltas) <= MaxWireBatch
			})
		}
		return false
	})
	return ok && !p.ws()
}

// strictJSON is the decoder of record: encoding/json with unknown fields
// refused, exactly as the handlers called it before the scanner existed.
func strictJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeStrict fills rq from body through strictJSON and op's wire.go type.
func (rq *wireRequest) decodeStrict(op hotOp, body []byte) error {
	var err error
	switch op {
	case hotEnqueueBatch:
		var req EnqueueBatchRequest
		err = strictJSON(body, &req)
		rq.items = req.Items
	case hotDeleteMinUpTo:
		var req DeleteMinRequest
		err = strictJSON(body, &req)
		rq.max = req.Max
	case hotCounterAddBatch:
		var req CounterAddRequest
		err = strictJSON(body, &req)
		rq.deltas = req.Deltas
	}
	return err
}

// decode fills rq from body: the scanner when it accepts, else the strict
// decoder, whose error is the one to report as a 400.
func (s *Server) decode(rq *wireRequest, op hotOp, body []byte) error {
	if rq.scan(op, body) {
		return nil
	}
	s.decodeFallbacks.Add(1)
	return rq.decodeStrict(op, body)
}

func appendEnqueueBatchResponse(dst []byte, r EnqueueBatchResponse) []byte {
	dst = append(dst, `{"enqueued":`...)
	dst = strconv.AppendInt(dst, int64(r.Enqueued), 10)
	return append(dst, "}\n"...)
}

func appendDeleteMinResponse(dst []byte, r DeleteMinResponse) []byte {
	if r.Items == nil {
		dst = append(dst, `{"items":null`...)
	} else {
		dst = append(dst, `{"items":[`...)
		for i, it := range r.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"priority":`...)
			dst = strconv.AppendUint(dst, it.Priority, 10)
			dst = append(dst, `,"value":`...)
			dst = strconv.AppendUint(dst, it.Value, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, "}\n"...)
}

func appendCounterAddResponse(dst []byte, r CounterAddResponse) []byte {
	dst = append(dst, `{"added":`...)
	dst = strconv.AppendInt(dst, int64(r.Added), 10)
	return append(dst, "}\n"...)
}

func appendCounterReadResponse(dst []byte, r CounterReadResponse) []byte {
	dst = append(dst, `{"value":`...)
	dst = strconv.AppendUint(dst, r.Value, 10)
	return append(dst, "}\n"...)
}

func appendSessionCloseResponse(dst []byte, r SessionCloseResponse) []byte {
	dst = append(dst, `{"closed":`...)
	dst = strconv.AppendBool(dst, r.Closed)
	return append(dst, "}\n"...)
}

// appendJSON appends v as json.Encoder writes it: the control plane's
// encoder (stats, readyz) and the error body's when the message
// needs escaping.
func appendJSON(dst []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("dlzd: unencodable response: " + err.Error()) // the wire.go types all encode
	}
	return append(append(dst, b...), '\n')
}

// appendError appends an ErrorResponse body. The daemon's own messages are
// plain ASCII and are written directly; one that json.Encoder would escape
// (a decoder error quoting the client's bytes) goes through it.
func appendError(dst []byte, msg string) []byte {
	for i := 0; i < len(msg); i++ {
		switch c := msg[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return appendJSON(dst, ErrorResponse{Error: msg})
		}
	}
	dst = append(dst, `{"error":"`...)
	dst = append(dst, msg...)
	return append(dst, "\"}\n"...)
}
