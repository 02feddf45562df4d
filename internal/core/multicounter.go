package core

import (
	"repro/internal/pad"
	"repro/internal/rng"
	"repro/internal/trace"
)

// MultiCounter is the relaxed approximate counter of Algorithm 1: m atomic
// counters; Handle.Increment applies the d-choice rule (read d distinct
// random counters, increment the one that appeared smallest; the paper's
// default is d = 2); Read samples one counter and scales by m to keep the
// magnitude of the true total. Every update goes through a Handle, and so
// through the one Sampler both structures share.
//
// With m ≥ C·n for the analysis constant C, Theorem 6.1 shows the value
// returned by Read is within O(m·log m) of the number of completed
// increments, in expectation and w.h.p., at every point of every execution
// under an oblivious scheduler.
//
// Beyond the paper, MultiCounterConfig{Choices, Stickiness, Batch} enables
// the same amortised fast path the MultiQueue carries: handles stick to
// their sampled shard candidates for a window of operations and accumulate
// increments locally, publishing a whole batch with one shared atomic add
// (DESIGN.md §2). cmd/quality audits the deviation cost of any setting
// against the m·log₂m envelope.
type MultiCounter struct {
	cells []pad.Uint64 // m counters, each on its own line
	d     int
	stick int
	batch int
}

// MultiCounterConfig configures NewMultiCounter. The zero value of optional
// fields selects the paper's defaults (two fresh choices per increment, no
// batching — Algorithm 1 exactly).
type MultiCounterConfig struct {
	// Topology.InitialM is m, the number of atomic counters (Algorithm 1's
	// bins), fixed at construction. It must be positive. For Theorem 6.1's
	// guarantees m should be a large constant multiple of the thread count;
	// m ≈ 4–8× threads balances well in practice (Figure 1a).
	Topology Topology
	// Choices is d, the number of random counters an increment samples
	// before incrementing the smallest. 0 selects the paper's d = 2;
	// d = 1 is the divergent single-choice process (ablation A1); d > 2
	// trades extra shared reads for a tighter gap; d > m clamps to m.
	// Negative values panic.
	Choices int
	// Stickiness is the operation-stickiness window s: a handle re-uses its
	// d sampled shard candidates for up to s consecutive increments before
	// re-rolling, charged per increment, exactly like the MultiQueue's
	// window (a candidate set serves max(s, Batch) increments — a batch is
	// never split). 0 or 1 means fresh choices every operation. Larger s
	// amortises PRNG draws at the cost of extra deviation (re-measure with
	// cmd/quality).
	Stickiness int
	// Batch is the batching factor k: handles accumulate up to k increments
	// (or Add weights) in a private buffer and publish the sum with one
	// shared atomic add — one d-choice sample and one coherence miss per k
	// increments instead of per increment. 0 or 1 means per-operation
	// publishing. Buffered increments are invisible to Read/Exact/Gap until
	// the batch flushes; call Handle.Flush at quiescence.
	Batch int
}

// NewMultiCounter returns a MultiCounter over m atomic counters with the
// paper's per-operation two-choice defaults. It is the convenience form of
// NewMultiCounterConfig.
func NewMultiCounter(m int) *MultiCounter {
	return NewMultiCounterConfig(MultiCounterConfig{Topology: Topology{InitialM: m}})
}

// NewMultiCounterConfig returns a MultiCounter with the given configuration,
// normalizing zero-valued optional fields to the paper's defaults (Choices 2,
// Stickiness 1, Batch 1 — Algorithm 1 exactly). Choices above m clamp to m,
// as the handles' Sampler does.
func NewMultiCounterConfig(cfg MultiCounterConfig) *MultiCounter {
	m := cfg.Topology.shards("MultiCounterConfig")
	if cfg.Choices < 0 {
		panic("core: MultiCounterConfig.Choices must be >= 0")
	}
	if cfg.Choices == 0 {
		cfg.Choices = 2
	}
	if cfg.Stickiness < 1 {
		cfg.Stickiness = 1
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	return &MultiCounter{
		cells: make([]pad.Uint64, m),
		d:     min(cfg.Choices, m),
		stick: cfg.Stickiness,
		batch: cfg.Batch,
	}
}

// Choices returns the configured number of random choices d (1 ≤ d ≤ m).
func (c *MultiCounter) Choices() int { return c.d }

// Stickiness returns the configured stickiness window s (>= 1).
func (c *MultiCounter) Stickiness() int { return c.stick }

// Batch returns the configured batching factor k (>= 1).
func (c *MultiCounter) Batch() int { return c.batch }

// Read returns m times the value of a uniformly random counter — the
// approximate total (Algorithm 1's read, whose deviation Theorem 6.1
// bounds by O(m·log m)).
func (c *MultiCounter) Read(r *rng.Xoshiro256) uint64 {
	m := len(c.cells)
	return uint64(m) * c.cells[r.Intn(m)].Load()
}

// Exact returns the sum of all counters. At quiescence (all handles flushed)
// this equals the total published weight; under concurrency it is a lower
// bound at the instant the scan ends. Increments still buffered by batched
// handles are not included until those handles flush.
func (c *MultiCounter) Exact() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].Load()
	}
	return total
}

// Gap returns the current max − min over the counters (the quantity whose
// O(log m) bound drives Theorem 6.1). Non-atomic scan; for monitoring and
// quality experiments.
func (c *MultiCounter) Gap() uint64 {
	lo := c.cells[0].Load()
	hi := lo
	for i := range c.cells {
		v := c.cells[i].Load()
		lo, hi = min(lo, v), max(hi, v)
	}
	return hi - lo
}

// Snapshot copies the per-counter values into dst (len must equal M) for the
// quality experiment's bin-distribution traces (Figure 1b).
func (c *MultiCounter) Snapshot(dst []uint64) {
	if len(dst) != len(c.cells) {
		panic("core: Snapshot dst length mismatch")
	}
	for i := range dst {
		dst[i] = c.cells[i].Load()
	}
}

// Handle binds a MultiCounter to one goroutine's private generator and, in
// sticky/batched mode, the handle-local fast-path state: the sticky d-choice
// sampler and the increment buffer awaiting its batch flush. All hot paths
// go through handles so no PRNG state is shared. A handle must be used by
// one goroutine at a time.
type Handle struct {
	// room is the countdown the update path runs on: how many more updates
	// the buffer takes before the one that must publish. An open batched
	// handle holds span−room buffered updates with span = Batch−1; per-op
	// mode (Batch 1) and a closed handle have span = room = 0, so every
	// update there takes the slow call. bufWeight is the buffered weight.
	room      int
	span      int
	bufWeight uint64

	c   *MultiCounter
	r   rng.Xoshiro256 // by value: no separate allocation to share a line
	smp Sampler

	// closed marks a handle retired by Close: its buffer is drained and
	// every further update is a programming error.
	closed bool

	// Pads the handle to two whole cache lines, so that handles minted back
	// to back (a dlzd handle pair, consecutive pairs) never share the line
	// room and bufWeight are written on by every update.
	_ [2*pad.CacheLine - 144]byte
}

// NewHandle returns a handle whose random stream is derived from seed,
// inheriting the counter's Choices, Stickiness and Batch configuration.
// Distinct workers must use distinct seeds (or rng.Streams).
func (c *MultiCounter) NewHandle(seed uint64) *Handle {
	return &Handle{
		room: c.batch - 1,
		span: c.batch - 1,
		c:    c,
		r:    *rng.NewXoshiro256(seed),
		smp:  NewSampler(len(c.cells), c.d, c.stick),
	}
}

// Increment applies one relaxed increment: an immediate sticky d-choice
// update in per-op mode, or a buffered one in batched mode (published by the
// k-th buffered operation or an explicit Flush).
func (h *Handle) Increment() { h.Add(1) }

// Add applies one relaxed update of weight delta through the same
// sticky/batched path as Increment — the weighted balls-into-bins extension
// (Talwar–Wieder; Berenbrink et al., discussed in the paper's related work).
// Theorem 7.1's potential argument covers weight distributions with bounded
// moment generating functions, which includes any fixed bounded delta; keep
// deltas small relative to the O(log m) gap scale or the guarantee
// constants degrade. While the buffer has room the
// update is a decrement and an add on handle-local words, small enough to
// inline into the caller's loop; everything else is addSlow.
func (h *Handle) Add(delta uint64) {
	if h.room > 0 {
		h.room--
		h.bufWeight += delta
		return
	}
	h.addSlow(delta)
}

// addSlow is the update that cannot be buffered: the one filling the batch,
// every update in per-op mode, or a use after Close. It must stay a call:
// inlined into Add it would push Add itself over the inliner's budget.
//
//go:noinline
func (h *Handle) addSlow(delta uint64) {
	if h.closed {
		panic("core: operation on closed Handle")
	}
	h.bufWeight += delta
	h.publish(h.span + 1)
}

// publish moves the buffered weight, standing for ops updates, to the
// sticky d-choice winner with one atomic add, charges the stickiness window
// per update and empties the buffer.
func (h *Handle) publish(ops int) {
	i := argmin(h.c.cells, h.smp.Candidates(&h.r, ops))
	h.smp.Charge(ops)
	h.c.cells[i].Add(h.bufWeight)
	h.bufWeight, h.room = 0, h.span
}

// argmin returns the candidate whose cell reads smallest — the d-choice
// rule. Like the paper's algorithm the cells are read one at a time with no
// synchronization, so the winner may be stale by the time the caller adds to
// it; that staleness is the relaxation the analysis bounds. A single
// candidate (d = 1) is returned without reading its cell.
func argmin(cells []pad.Uint64, cand []int) int {
	best := cand[0]
	if len(cand) == 1 {
		return best
	}
	bestV := cells[best].Load()
	for _, i := range cand[1:] {
		if v := cells[i].Load(); v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Buffered returns the number of increments (Add calls) held in this
// handle's buffer, not yet visible to Read/Exact/Gap. Zero unless Batch > 1.
func (h *Handle) Buffered() int { return h.span - h.room }

// BufferedWeight returns the summed weight of the buffered increments — the
// amount Exact is currently short by on this handle's account. Zero unless
// Batch > 1.
func (h *Handle) BufferedWeight() uint64 { return h.bufWeight }

// Flush publishes any buffered increments with one sticky d-choice atomic
// add, charging the stickiness window per buffered operation. Call at
// quiescence (before Exact/Gap/Snapshot audits); a handle with an empty
// buffer flushes for free.
func (h *Handle) Flush() {
	if ops := h.Buffered(); ops > 0 {
		h.publish(ops)
	}
}

// Read returns the approximate counter value (Algorithm 1's read). This
// handle's own buffered increments are not yet reflected; Flush first if the
// caller needs them counted.
func (h *Handle) Read() uint64 { return h.c.Read(&h.r) }

// Close retires the handle: buffered increments are flushed with one final
// d-choice publish and the handle is invalidated. After Close, Buffered and
// BufferedWeight are zero and any further Increment/Add panics; closing an
// already-closed handle is a no-op. Owners that abandon a handle without a
// final Flush must Close it, or the counter silently loses the buffered
// weight — the abandoned-handle bug this contract fixes.
func (h *Handle) Close() {
	if h.closed {
		return
	}
	h.Flush()
	h.closed = true
	h.room, h.span = 0, 0
}

// Counter returns the underlying MultiCounter.
func (h *Handle) Counter() *MultiCounter { return h.c }

// IncrementTraced performs Increment and records the operation in log with
// stamps from rec; the linearization stamp is taken adjacent to the atomic
// increment. The handle must have Batch 1, so that the increment publishes
// inside the stamps instead of waiting in the buffer. Unlike an enqueue's
// stamp (see MQHandle.EnqueueTraced), this one may follow the moment other
// handles can see the increment, so a read that observes it can be stamped
// first. The counter spec tolerates that: it rejects no history — a read is
// charged |value − increments linearized before it| — and the error is at
// most one per increment in flight when the read is stamped, fewer than the
// recording threads, against an O(m·log m) deviation envelope. Used by the
// distributional-linearizability tests.
func (h *Handle) IncrementTraced(rec *trace.Recorder, log *trace.ThreadLog) {
	start := rec.Stamp()
	h.Increment()
	lin := rec.Stamp()
	log.Record(trace.Event{Kind: trace.KindInc, Start: start, Lin: lin, End: lin})
}

// ReadTraced performs Read and records the operation with its returned
// value.
func (h *Handle) ReadTraced(rec *trace.Recorder, log *trace.ThreadLog) uint64 {
	start := rec.Stamp()
	v := h.Read()
	lin := rec.Stamp()
	log.Record(trace.Event{Kind: trace.KindRead, Start: start, Lin: lin, End: lin, Ret: v})
	return v
}
