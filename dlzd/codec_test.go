package dlzd

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// decodeStrict is the scanner's reference: op's wire.go type read by
// encoding/json with unknown fields refused, as the handlers decoded bodies
// before the scanner existed.
func decodeStrict(op hotOp, body []byte) (wireRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var enq EnqueueBatchRequest
	var del DeleteMinRequest
	var add CounterAddRequest
	err := dec.Decode([...]any{&enq, &del, &add}[op])
	return wireRequest{items: enq.Items, max: del.Max, deltas: add.Deltas}, err
}

// sameRequest compares two decoded requests; an absent and an empty list are
// the same request (both are refused for their length).
func sameRequest(a, b wireRequest) bool {
	return a.max == b.max &&
		len(a.items) == len(b.items) && (len(a.items) == 0 || reflect.DeepEqual(a.items, b.items)) &&
		len(a.deltas) == len(b.deltas) && (len(a.deltas) == 0 || reflect.DeepEqual(a.deltas, b.deltas))
}

// wireDecodeSeeds are bodies on both sides of the scanner's line: what the
// benchmark and json.Marshal send, and what it declines although
// encoding/json may read it.
var wireDecodeSeeds = []string{
	`{"session":"c0","items":[{"priority":17,"value":1},{"priority":3,"value":2}]}`,
	`{"session":"c0","max":8}`,
	`{"session":"c0","deltas":[1,2,3,4,5,6,7,8]}`,
	`{"session":"s","items":[{"priority":18446744073709551615,"value":18446744073709551615}]}`,
	`{"session":"s","items":[{"priority":18446744073709551616,"value":1}]}`,
	`{"session":"s","deltas":[18446744073709551615]}`,
	`{"session":"s","deltas":[18446744073709551616]}`,
	`{"session":"s","max":9223372036854775807}`,
	`{"session":"s","max":9223372036854775808}`,
	`{"session":"s","max":007}`,
	`{"session":"s","max":0}`,
	`{"session":"s","max":1e3}`,
	`{"session":"s","max":4.0}`,
	`{"session":"s","max":-0}`,
	`{"session":"s","max":-3}`,
	`{"session":"s","deltas":[-0]}`,
	`{"session":"s","deltas":[01]}`,
	`{"Session":"s","max":4}`,
	`{"SESSION":"s","Max":4}`,
	`{"session":"a","session":"b","max":4}`,
	`{"session":"s","max":1,"max":2}`,
	`{"session":"s","items":[{"priority":1,"priority":2,"value":3}]}`,
	`{"session":"s","max":4}trailing garbage`,
	`{"session":"s","max":4} ` + "\n\t",
	"{\"session\":\"s\",\"max\":4}\x00",
	`{"session":"s","max":4,"extra":1}`,
	`{"session":"s","items":[{"priority":1,"value":2,"extra":3}]}`,
	`{"session":"s","items":[[[[[[[[[[]]]]]]]]]]}`,
	`{"session":"s","items":[{"priority":{"a":{"b":[1]}},"value":2}]}`,
	`{"session":"sA","max":4}`,
	`{"session":"s\n","max":4}`,
	"{\"session\":\"s\n\",\"max\":4}",
	"{\"session\":\"\xc3\xa9\",\"max\":4}",
	"{\"session\":\"\xff\",\"max\":4}",
	`{"session":"","max":4}`,
	`{"session":null,"max":4}`,
	`{"session":"s","items":null}`,
	`{"session":"s","items":[]}`,
	`{"session":"s","items":[{}]}`,
	`{"session":"s","deltas":[]}`,
	`{"max":4,"session":"s"}`,
	`{ "session" : "s" , "items" : [ { "value" : 2 , "priority" : 1 } ] }`,
	`{}`,
	`{`,
	``,
	`null`,
	`[]`,
	`"session"`,
	`{"session":"s","max":4,}`,
	`{"session":"s",,"max":4}`,
	`{"session":"s" "max":4}`,
	`{"session":"s","deltas":[1,]}`,
	`{"session":"s","deltas":[1 2]}`,
	"{\"deltas\":[\x000]}",
	`{"max":4}`,
	`{"items":[{"priority":1,"value":2}]}`,
}

// FuzzWireDecode holds the scanner to its contract: on every body, for each
// of the three requests, it either declines (a 400) or returns exactly what
// the strict json.Decoder (decodeStrict) returns — so whatever it accepts,
// encoding/json reads the same way.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireDecodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for op := hotEnqueueBatch; op <= hotCounterAddBatch; op++ {
			var got wireRequest
			if !got.scan(op, body) {
				continue
			}
			want, err := decodeStrict(op, body)
			if err != nil {
				t.Fatalf("op %d: scanner accepted %q, json.Decoder refuses it: %v", op, body, err)
			}
			if !sameRequest(got, want) {
				t.Fatalf("op %d: %q scanned as %+v, json.Decoder reads %+v", op, body, got, want)
			}
		}
	})
}

// TestScannerAcceptsCanonical pins the other half: the bodies real clients
// send must be accepted, for a declined body is a 400. A dlzd-load run
// asserts the same from outside: a worker gives up on a 400.
func TestScannerAcceptsCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		items := make([]WireItem, 1+r.Intn(16))
		deltas := make([]uint64, 1+r.Intn(16))
		for j := range items {
			items[j] = WireItem{Priority: r.Uint64() >> uint(r.Intn(64)), Value: r.Uint64()}
		}
		for j := range deltas {
			deltas[j] = r.Uint64() >> uint(r.Intn(64))
		}
		session := "w3-a"
		if i%2 == 0 {
			session = "" // omitted: the token is optional
		}
		for op, req := range map[hotOp]any{
			hotEnqueueBatch:    EnqueueBatchRequest{Session: session, Items: items},
			hotDeleteMinUpTo:   DeleteMinRequest{Session: session, Max: 1 + r.Intn(MaxWireBatch)},
			hotCounterAddBatch: CounterAddRequest{Session: session, Deltas: deltas},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			var got wireRequest
			if !got.scan(op, body) {
				t.Fatalf("scanner declined json.Marshal output %s", body)
			}
			if want, err := decodeStrict(op, body); err != nil || !sameRequest(got, want) {
				t.Fatalf("%s scanned as %+v, want %+v (%v)", body, got, want, err)
			}
		}
	}
	// A declined body is a 400 through handle, with the one fixed message.
	s := New(Config{})
	var sc scratch
	for _, body := range []string{`{"Session":"s","max":4}`, `{"session":"s","max":1e3}`} {
		rq := request{method: []byte("POST"), path: []byte("/v1/t/delete-min-up-to"), body: []byte(body), arrival: time.Now()}
		out, rp := s.handle(&sc, &rq, nil)
		if rp.status != http.StatusBadRequest || string(out) != string(appendError(nil, badBody)) {
			t.Fatalf("%s answered %d %q, want 400 %q", body, rp.status, out, badBody)
		}
	}
}

// TestEncodersMatchJSON compares the five appenders (and the error body's
// plain path) byte for byte with json.Encoder over randomized values,
// truncated drains and empty item lists included.
func TestEncodersMatchJSON(t *testing.T) {
	encode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	check := func(got []byte, v any) {
		t.Helper()
		if want := encode(v); string(got) != want {
			t.Fatalf("appender wrote %q, json.Encoder writes %q", got, want)
		}
	}
	r := rand.New(rand.NewSource(2))
	u64 := func() uint64 { return r.Uint64() >> uint(r.Intn(64)) }
	for i := 0; i < 500; i++ {
		enq := EnqueueBatchResponse{Enqueued: r.Intn(MaxWireBatch + 1)}
		check(appendEnqueueBatchResponse(nil, enq), enq)

		deq := DeleteMinResponse{Items: make([]WireItem, r.Intn(5)), Truncated: r.Intn(2) == 0}
		for j := range deq.Items {
			deq.Items[j] = WireItem{Priority: u64(), Value: u64()}
		}
		if r.Intn(8) == 0 {
			deq.Items = nil
		}
		check(appendDeleteMinResponse(nil, deq), deq)

		add := CounterAddResponse{Added: r.Intn(MaxWireBatch + 1)}
		check(appendCounterAddResponse(nil, add), add)

		read := CounterReadResponse{Value: u64()}
		check(appendCounterReadResponse(nil, read), read)

		closed := SessionCloseResponse{Closed: r.Intn(2) == 0}
		check(appendSessionCloseResponse(nil, closed), closed)
	}
	check(appendDeleteMinResponse(nil, DeleteMinResponse{Items: []WireItem{}, Truncated: true}), DeleteMinResponse{Items: []WireItem{}, Truncated: true})
	check(appendCounterReadResponse(nil, CounterReadResponse{Value: math.MaxUint64}), CounterReadResponse{Value: math.MaxUint64})
	for _, msg := range []string{
		"load shed", "items must number in [1, 4096]", "handler fault at dlzd/enqueue/item", "",
		`bad request body: invalid character '"' after object key`, "a<b>&c", "tab\there", "café", "\xff", `back\slash`,
	} {
		check(appendError(nil, msg), ErrorResponse{Error: msg})
	}
	// Appenders extend, never overwrite.
	if got := appendCounterReadResponse([]byte("x"), CounterReadResponse{Value: 7}); string(got) != "x{\"value\":7}\n" {
		t.Fatalf("append onto a prefix = %q", got)
	}
}
