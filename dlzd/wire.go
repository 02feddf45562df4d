package dlzd

// Wire types of the dlzd HTTP/JSON protocol. Priorities and values are full
// uint64s: Go's JSON encoder emits them as exact integer literals and the
// decoder parses literals directly into uint64 fields, so priorities beyond
// 2^53 (including the 2^48 top-word truncation boundary the differential
// tests straddle) survive the wire round trip at full resolution.

// WireItem is one (priority, value) element as it crosses the wire.
type WireItem struct {
	Priority uint64 `json:"priority"`
	Value    uint64 `json:"value"`
}

// EnqueueBatchRequest is the body of POST /v1/{tenant}/enqueue-batch: insert
// Items into the tenant's MultiQueue through a handle borrowed from the
// tenant's pool. Elements ride the handle's buffered insert path in AddBatch
// lumps, and the last lump publishes before the 200: every acknowledged
// element is visible to every client.
type EnqueueBatchRequest struct {
	// Session is an optional client token the daemon accepts and ignores.
	// The same holds for the other two hot bodies' Session fields.
	Session string `json:"session,omitempty"`
	// Items are enqueued in order with their explicit priorities (the
	// relaxed priority-queue mode; clients wanting FIFO semantics pass
	// their own monotone stamps).
	Items []WireItem `json:"items"`
}

// EnqueueBatchResponse reports an enqueue-batch outcome.
type EnqueueBatchResponse struct {
	// Enqueued is the number of items accepted (always len(Items) on 200).
	Enqueued int `json:"enqueued"`
}

// DeleteMinRequest is the body of POST /v1/{tenant}/delete-min-up-to:
// remove up to Max relaxed minima through a borrowed handle (the cpq.Queue
// TryDeleteMinUpTo path end-to-end; a refused shard is redrawn).
type DeleteMinRequest struct {
	Session string `json:"session,omitempty"`
	// Max bounds the number of returned items; fewer are returned only when
	// the structure ran empty. Must be in [1, MaxWireBatch].
	Max int `json:"max"`
}

// DeleteMinResponse carries the removed elements in the order the relaxed
// dequeue produced them (each of rank O(m) in expectation, Theorem 7.1).
type DeleteMinResponse struct {
	Items []WireItem `json:"items"`
	// Truncated is set when the request deadline expired mid-drain: Items
	// holds what was removed before the deadline (they are already out of
	// the structure, so a partial 200 — not an error — is what preserves
	// delivered-exactly-once). Fewer than Max items with Truncated false
	// means the structure ran empty.
	Truncated bool `json:"truncated,omitempty"`
}

// CounterAddRequest is the body of POST /v1/{tenant}/counter/add-batch:
// apply the weighted increments Deltas to the tenant's MultiCounter through
// a borrowed handle (buffered, published in batch lumps, the last one before
// the 200).
type CounterAddRequest struct {
	Session string   `json:"session,omitempty"`
	Deltas  []uint64 `json:"deltas"`
}

// CounterAddResponse reports a counter add-batch outcome.
type CounterAddResponse struct {
	// Added is the number of deltas applied (always len(Deltas) on 200).
	Added int `json:"added"`
}

// CounterReadResponse is the body of GET /v1/{tenant}/counter/read: the
// approximate total (Algorithm 1's read, within O(m·log m) of the true
// published count).
type CounterReadResponse struct {
	Value uint64 `json:"value"`
}

// SessionCloseRequest is a body clients may POST to
// /v1/{tenant}/session/close. The daemon keeps no per-session state, so the
// body is not read and the answer is always a SessionCloseResponse with
// Closed false.
type SessionCloseRequest struct {
	Session string `json:"session"`
}

// SessionCloseResponse is the answer to session/close: Closed is always
// false, since there is no session to close.
type SessionCloseResponse struct {
	Closed bool `json:"closed"`
}

// StatsResponse is the body of GET /v1/{tenant}/stats — the audit surface
// the soak tests' conservation checks read. Every request publishes its
// pair's buffers before it answers, so QueueLen and CounterExact count every
// element and weight not yet delivered. Leases counts the handle pairs the
// tenant's pool owns, idle or borrowed. The four Buffered/Prefetched fields
// sum the idle pairs' buffers and are therefore always 0: they stay on the
// wire for the benchmark's checker, which still sums them, and read as a
// tripwire.
// The applied-operation ledger (OpsEnqueued, OpsDequeued, CounterDeltaSum)
// is defer-committed inside the handlers, so it stays exact through injected
// faults; with no request in flight conservation demands QueueLen ==
// OpsEnqueued − OpsDequeued and CounterExact == CounterDeltaSum — the chaos
// soak's exit criteria.
type StatsResponse struct {
	Tenant                string `json:"tenant"`
	QueueLen              int    `json:"queue_len"`
	CounterExact          uint64 `json:"counter_exact"`
	Leases                int    `json:"leases"`
	BufferedEnqueues      int    `json:"buffered_enqueues"`
	PrefetchedDequeues    int    `json:"prefetched_dequeues"`
	BufferedCounterOps    int    `json:"buffered_counter_ops"`
	BufferedCounterWeight uint64 `json:"buffered_counter_weight"`
	OpsEnqueued           uint64 `json:"ops_enqueued"`
	OpsDequeued           uint64 `json:"ops_dequeued"`
	CounterDeltaSum       uint64 `json:"counter_delta_sum"`
	// ShedLevel is the tenant's current adaptive shed level (0..3).
	ShedLevel int `json:"shed_level"`
	// PanicsRecovered counts handler panics absorbed by the recovery
	// envelope; RepairFailures counts returned handle pairs whose flush
	// exhausted the repair ladder (0 under any Count-bounded fault schedule).
	PanicsRecovered uint64 `json:"panics_recovered"`
	RepairFailures  uint64 `json:"repair_failures"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// RecoveringResponse is the /readyz 503 body while the journal replays: an
// ErrorResponse plus how far the replay has got, updated once per segment.
type RecoveringResponse struct {
	Error            string `json:"error"`
	ReplayedRecords  uint64 `json:"replayed_records"`
	ReplayedSegments uint64 `json:"replayed_segments"`
}
