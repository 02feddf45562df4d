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
// Items into the tenant's MultiQueue through the session's leased handle.
// Elements ride the handle's buffered insert path and become visible to
// other sessions in AddBatch lumps; Buffered in the response reports how
// many are still staged in the handle.
type EnqueueBatchRequest struct {
	// Session is the caller's session token; the daemon leases one handle
	// pair per token, so the sticky sampler state survives across requests
	// carrying the same token.
	Session string `json:"session"`
	// Items are enqueued in order with their explicit priorities (the
	// relaxed priority-queue mode; clients wanting FIFO semantics pass
	// their own monotone stamps).
	Items []WireItem `json:"items"`
}

// EnqueueBatchResponse reports an enqueue-batch outcome.
type EnqueueBatchResponse struct {
	// Enqueued is the number of items accepted (always len(Items) on 200).
	Enqueued int `json:"enqueued"`
	// Buffered is the number of elements still staged in the session's
	// insert buffer after this request — published on the next full batch,
	// session close, or lease expiry.
	Buffered int `json:"buffered"`
}

// DeleteMinRequest is the body of POST /v1/{tenant}/delete-min-up-to:
// remove up to Max relaxed minima through the session's leased handle (the
// cpq.Queue TryDeleteMinUpTo path end-to-end; a refused shard is redrawn).
type DeleteMinRequest struct {
	Session string `json:"session"`
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
// the session's leased handle (buffered, published in batch lumps).
type CounterAddRequest struct {
	Session string   `json:"session"`
	Deltas  []uint64 `json:"deltas"`
}

// CounterAddResponse reports a counter add-batch outcome.
type CounterAddResponse struct {
	// Added is the number of deltas applied (always len(Deltas) on 200).
	Added int `json:"added"`
	// BufferedOps and BufferedWeight report what the session's handle still
	// holds locally after this request — invisible to reads until the next
	// batch publish, session close, or lease expiry.
	BufferedOps    int    `json:"buffered_ops"`
	BufferedWeight uint64 `json:"buffered_weight"`
}

// CounterReadResponse is the body of GET /v1/{tenant}/counter/read: the
// approximate total (Algorithm 1's read, within O(m·log m) of the true
// published count).
type CounterReadResponse struct {
	Value uint64 `json:"value"`
}

// SessionCloseRequest is the body of POST /v1/{tenant}/session/close: flush
// and retire the session's leased handles. The disconnect half of the lease
// lifecycle; idle leases are expired by the janitor with the same path.
type SessionCloseRequest struct {
	Session string `json:"session"`
}

// SessionCloseResponse reports a session close outcome. Closed is false
// when the token had no live lease (already expired or never used).
type SessionCloseResponse struct {
	Closed bool `json:"closed"`
}

// StatsResponse is the body of GET /v1/{tenant}/stats — the quiescent audit
// surface the soak test's conservation check reads. QueueLen and
// CounterExact count only published state; the Buffered/Prefetched fields
// report what live leases still hold, so the logical totals even mid-run
// are QueueLen+BufferedEnqueues+PrefetchedDequeues (elements not yet
// delivered to any client) and CounterExact+BufferedCounterWeight.
// The applied-operation ledger (OpsEnqueued, OpsDequeued, CounterDeltaSum)
// is defer-committed inside the handlers, so it stays exact through injected
// faults; at quiescence (all leases closed) conservation demands QueueLen ==
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
	// envelope; RepairFailures counts lease retirements that exhausted the
	// repair ladder (0 under any Count-bounded fault schedule).
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
