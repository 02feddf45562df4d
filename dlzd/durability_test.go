package dlzd

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// newDurableClient builds a server journaling into dir, runs recovery (the
// caller's traffic needs the ready flip), and returns it with a test client.
func newDurableClient(t *testing.T, dir string, cfg Config) (*Server, *testClient) {
	t.Helper()
	if cfg.Durability == nil {
		cfg.Durability = &Durability{Dir: dir}
	}
	s, c := newTestServer(t, cfg)
	if _, err := s.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return s, c
}

// TestDurableRoundTrip is the basic crash-free cycle: traffic, clean Close
// (final snapshot), reboot from the same directory, and the recovered stats
// must match the pre-shutdown ledger exactly — with zero journal records
// replayed, because the shutdown snapshot covered everything.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, c := newDurableClient(t, dir, Config{Queues: 4, Batch: 4, Seed: 7})

	if code := c.post("/v1/a/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(5, 3, 9, 1)}, nil); code != http.StatusOK {
		t.Fatalf("enqueue = %d", code)
	}
	var deq DeleteMinResponse
	if code := c.post("/v1/a/delete-min-up-to", DeleteMinRequest{Session: "s", Max: 2}, &deq); code != http.StatusOK {
		t.Fatalf("delete-min = %d", code)
	}
	if code := c.post("/v1/a/counter/add-batch", CounterAddRequest{Session: "s", Deltas: []uint64{10, 20}}, nil); code != http.StatusOK {
		t.Fatalf("counter = %d", code)
	}
	if code := c.post("/v1/b/enqueue-batch", EnqueueBatchRequest{Session: "s2", Items: wireItems(7)}, nil); code != http.StatusOK {
		t.Fatalf("enqueue b = %d", code)
	}
	s.Close()

	s2 := New(Config{Queues: 4, Batch: 4, Seed: 8, Durability: &Durability{Dir: dir}})
	stats, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover after Close: %v", err)
	}
	defer s2.Close()
	if stats.Records != 0 {
		t.Errorf("clean shutdown must replay zero records, got %d", stats.Records)
	}
	if stats.Tenants != 2 {
		t.Errorf("recovered %d tenants, want 2", stats.Tenants)
	}
	ta, _ := s2.tenant([]byte("a"))
	if got := ta.mq.Len(); got != 4-len(deq.Items) {
		t.Errorf("tenant a queue = %d, want %d", got, 4-len(deq.Items))
	}
	if got := ta.mc.Exact(); got != 30 {
		t.Errorf("tenant a counter = %d, want 30", got)
	}
	if got := ta.opsEnqueued.Load(); got != 4 {
		t.Errorf("tenant a OpsEnqueued = %d, want 4", got)
	}
	if got := ta.opsDequeued.Load(); got != uint64(len(deq.Items)) {
		t.Errorf("tenant a OpsDequeued = %d, want %d", got, len(deq.Items))
	}
	tb, _ := s2.tenant([]byte("b"))
	if got := tb.mq.Len(); got != 1 {
		t.Errorf("tenant b queue = %d, want 1", got)
	}
}

// TestCrashRecoveryReplaysJournal abandons the first server without Close —
// the in-process stand-in for SIGKILL: no shutdown snapshot, no segment
// seal — and recovers purely from the journal tail. Everything acknowledged
// must be there, exactly once.
func TestCrashRecoveryReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	_, c := newDurableClient(t, dir, Config{Queues: 4, Batch: 4, Seed: 7})

	enq, deq := 0, 0
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		switch r.Intn(3) {
		case 0, 1:
			n := 1 + r.Intn(4)
			items := make([]WireItem, n)
			for j := range items {
				items[j] = WireItem{Priority: r.Uint64() % 1000, Value: r.Uint64()}
			}
			if code := c.post("/v1/x/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: items}, nil); code != http.StatusOK {
				t.Fatalf("enqueue = %d", code)
			}
			enq += n
		case 2:
			var resp DeleteMinResponse
			if code := c.post("/v1/x/delete-min-up-to", DeleteMinRequest{Session: "s", Max: 1 + r.Intn(4)}, &resp); code != http.StatusOK {
				t.Fatalf("delete-min = %d", code)
			}
			deq += len(resp.Items)
		}
	}
	// No Close: the wal.Log keeps its segment open, like a killed process.
	// Every acked op was journaled with a synchronous write, so a fresh
	// reader sees all of it.
	s2 := New(Config{Queues: 4, Batch: 4, Seed: 9, Durability: &Durability{Dir: dir}})
	stats, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover after crash: %v", err)
	}
	if stats.Records == 0 {
		t.Fatal("crash recovery replayed zero records despite no shutdown snapshot")
	}
	tx, _ := s2.tenant([]byte("x"))
	if got := tx.mq.Len(); got != enq-deq {
		t.Errorf("recovered queue = %d, want %d (enq %d deq %d)", got, enq-deq, enq, deq)
	}
	if got := tx.opsEnqueued.Load(); got != uint64(enq) {
		t.Errorf("OpsEnqueued = %d, want %d", got, enq)
	}

	// A clean close after the crash boot snapshots at the journal head the
	// boot recovered to. Were that head lost, the snapshot would cut at 0
	// and the next boot would replay the whole journal on top of it,
	// doubling every element.
	s2.Close()
	s3 := New(Config{Queues: 4, Batch: 4, Seed: 11, Durability: &Durability{Dir: dir}})
	if _, err := s3.Recover(); err != nil {
		t.Fatalf("Recover after clean close: %v", err)
	}
	defer s3.Close()
	tx3, _ := s3.tenant([]byte("x"))
	if got := tx3.mq.Len(); got != enq-deq {
		t.Errorf("queue after crash, boot, clean close and boot = %d, want %d", got, enq-deq)
	}
}

// TestDeadlineJournalsAppliedPrefix pins the deferred journal append on the
// deadline exits: with every deadline already past, a two-stride enqueue and
// counter add each answer 503 after one stride and a two-stride delete-min
// answers a truncated 200, and each journals exactly the stride it applied.
// A crash-style reopen (no Close) must rebuild the live ledger.
func TestDeadlineJournalsAppliedPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Queues: 4, Batch: 4, Seed: 7, Durability: &Durability{Dir: dir}}
	s := New(cfg)
	s.ladder.requestTimeout = time.Nanosecond
	c := serveLoopback(t, s)
	if _, err := s.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}

	const n = 2 * deadlineStride
	prios := make([]uint64, n)
	deltas := make([]uint64, n)
	for i := range prios {
		prios[i], deltas[i] = uint64(i+1), uint64(i+1)
	}
	for i := 0; i < 2; i++ {
		if code := c.post("/v1/x/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(prios...)}, nil); code != http.StatusServiceUnavailable {
			t.Fatalf("two-stride enqueue %d = %d, want 503", i, code)
		}
	}
	if code := c.post("/v1/x/counter/add-batch", CounterAddRequest{Session: "s", Deltas: deltas}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("two-stride counter add = %d, want 503", code)
	}
	var deq DeleteMinResponse
	if code := c.post("/v1/x/delete-min-up-to", DeleteMinRequest{Session: "s", Max: n}, &deq); code != http.StatusOK {
		t.Fatalf("two-stride delete-min = %d, want truncated 200", code)
	}
	if !deq.Truncated || len(deq.Items) != deadlineStride {
		t.Fatalf("delete-min: truncated %v with %d items, want truncated with %d", deq.Truncated, len(deq.Items), deadlineStride)
	}
	var live StatsResponse
	if code := c.get("/v1/x/stats", &live); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	wantSum := uint64(deadlineStride * (deadlineStride + 1) / 2)
	if live.OpsEnqueued != 2*deadlineStride || live.OpsDequeued != deadlineStride || live.CounterDeltaSum != wantSum {
		t.Fatalf("live ledger = %d enqueued, %d dequeued, %d added; want %d, %d, %d",
			live.OpsEnqueued, live.OpsDequeued, live.CounterDeltaSum, 2*deadlineStride, deadlineStride, wantSum)
	}

	// No Close: the journal is what the deferred appends left on disk.
	s2 := New(Config{Queues: 4, Batch: 4, Seed: 9, Durability: &Durability{Dir: dir}})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover after crash: %v", err)
	}
	defer s2.Close()
	tx, ok := s2.tenant([]byte("x"))
	if !ok {
		t.Fatal("tenant x missing after reboot")
	}
	got := [4]uint64{tx.opsEnqueued.Load(), tx.opsDequeued.Load(), tx.counterDeltaSum.Load(), uint64(tx.mq.Len())}
	want := [4]uint64{live.OpsEnqueued, live.OpsDequeued, live.CounterDeltaSum, uint64(live.QueueLen)}
	if got != want {
		t.Errorf("recovered [enqueued dequeued delta-sum len] = %v, want the live %v", got, want)
	}
}

// TestRecoveryDeterministic pins the replay function: two independent replays
// of the same journal produce deep-equal state, and a server booted from that
// journal agrees with the offline Replay.
func TestRecoveryDeterministic(t *testing.T) {
	dir := t.TempDir()
	_, c := newDurableClient(t, dir, Config{Queues: 4, Batch: 4, Seed: 7})
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		tn := fmt.Sprintf("/v1/d%d", r.Intn(3))
		switch r.Intn(3) {
		case 0, 1:
			c.post(tn+"/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(uint64(r.Intn(100)), uint64(r.Intn(100)))}, nil)
		case 2:
			c.post(tn+"/delete-min-up-to", DeleteMinRequest{Session: "s", Max: 1 + r.Intn(3)}, nil)
		}
	}
	// Abandon the server mid-flight (no Close).

	one, _, err := wal.Replay(dir)
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	two, _, err := wal.Replay(dir)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("two replays of one journal diverged:\n%+v\n%+v", one, two)
	}
	s2 := New(Config{Queues: 4, Batch: 4, Seed: 21, Durability: &Durability{Dir: dir}})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer s2.Close()
	for _, st := range one {
		tn, ok := s2.tenant([]byte(st.Name))
		if !ok {
			t.Fatalf("tenant %q missing after boot", st.Name)
		}
		if got := tn.mq.Len(); got != len(st.Items) {
			t.Errorf("tenant %s: booted queue = %d, offline replay = %d", st.Name, got, len(st.Items))
		}
		if got := tn.mc.Exact(); got != st.CounterSum {
			t.Errorf("tenant %s: booted counter = %d, offline replay = %d", st.Name, got, st.CounterSum)
		}
	}
}

// TestReadyzGating pins the probe split: before Recover a durable server is
// alive (/healthz 200, /metrics 200) but not ready (/readyz 503, /v1 503);
// after Recover everything opens up.
func TestReadyzGating(t *testing.T) {
	s, c := newTestServer(t, Config{Queues: 2, Durability: &Durability{Dir: t.TempDir()}})
	if code := c.get("/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz before Recover = %d, want 200", code)
	}
	if code := c.get("/metrics", nil); code != http.StatusOK {
		t.Errorf("metrics before Recover = %d, want 200", code)
	}
	// The 503 carries the replay progress so far, as JSON a probe can parse.
	resp, err := http.Get(c.url + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	var progress RecoveringResponse
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	err = dec.Decode(&progress)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz before Recover = %d, want 503", resp.StatusCode)
	}
	if err != nil || progress.Error == "" || progress.ReplayedRecords != 0 || progress.ReplayedSegments != 0 {
		t.Errorf("readyz 503 body before Recover = %+v (decode: %v)", progress, err)
	}
	if code := c.post("/v1/t/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(1)}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("v1 before Recover = %d, want 503", code)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if code := c.get("/readyz", nil); code != http.StatusOK {
		t.Errorf("readyz after Recover = %d, want 200", code)
	}
	if code := c.post("/v1/t/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(1)}, nil); code != http.StatusOK {
		t.Errorf("v1 after Recover = %d, want 200", code)
	}
	s.Close()
	if code := c.get("/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after Close = %d, want 503", code)
	}
}

// TestWALMetricsSeries drives a few journaled requests under the always-fsync
// policy and checks every durability series exports with sane values.
func TestWALMetricsSeries(t *testing.T) {
	dir := t.TempDir()
	s, c := newDurableClient(t, dir, Config{Queues: 2,
		Durability: &Durability{Dir: dir, Fsync: wal.FsyncAlways}})
	for i := 0; i < 8; i++ {
		if code := c.post("/v1/m/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(uint64(i))}, nil); code != http.StatusOK {
			t.Fatalf("enqueue = %d", code)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	m := c.metrics()
	mustPos := func(series string) uint64 {
		v, err := strconv.ParseUint(lineValue(t, m, series), 10, 64)
		if err != nil {
			t.Fatalf("series %s: %v", series, err)
		}
		if v == 0 {
			t.Errorf("series %s = 0, want > 0", series)
		}
		return v
	}
	mustPos("dlzd_wal_bytes_total")
	mustPos("dlzd_wal_fsyncs_total")
	mustPos("dlzd_snapshots_total")
	if v := lineValue(t, m, "dlzd_wal_append_errors_total"); v != "0" {
		t.Errorf("append errors = %s, want 0", v)
	}
	// The recovery series exist from boot (zero on a fresh dir).
	if v := lineValue(t, m, "dlzd_recovery_replayed_records"); v != "0" {
		t.Errorf("replayed records on fresh dir = %s, want 0", v)
	}
	if v := lineValue(t, m, "dlzd_recovery_duration_seconds"); v == "" {
		t.Error("recovery duration series missing")
	}

	// Reboot after a crash-style abandon: the replay count goes live, and is
	// the journal tail behind the snapshot.
	const tail = 3
	for i := 0; i < tail; i++ {
		if code := c.post("/v1/m/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(uint64(i))}, nil); code != http.StatusOK {
			t.Fatalf("enqueue = %d", code)
		}
	}
	s2, c2 := newTestServer(t, Config{Queues: 2, Durability: &Durability{Dir: dir}})
	stats, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer s2.Close()
	if stats.Records != tail {
		t.Errorf("replayed %d records behind the snapshot, want %d", stats.Records, tail)
	}
	if v := lineValue(t, c2.metrics(), "dlzd_recovery_replayed_records"); v != strconv.Itoa(stats.Records) {
		t.Errorf("dlzd_recovery_replayed_records = %s after replaying %d records", v, stats.Records)
	}
}

// TestSnapshotUnderTraffic interleaves snapshots with live wire traffic and
// then recovers from whatever the journal holds, asserting exact conservation
// — the ops gate must make every snapshot a consistent cut, with records past
// the cut replaying on top. The capture flushes no handle pair, so the cut
// is consistent only because every request publishes its pair's buffers and
// returns its prefetch before it lets go of the gate; a request that left an
// element in its pair would lose it from the recovered queue.
func TestSnapshotUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	s, c := newDurableClient(t, dir, Config{Queues: 4, Batch: 8, Seed: 7})

	const workers = 4
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		enq, deq int
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 100))
			session := fmt.Sprintf("w%d", w)
			for i := 0; i < 60; i++ {
				if r.Intn(3) < 2 {
					n := 1 + r.Intn(4)
					items := make([]WireItem, n)
					for j := range items {
						items[j] = WireItem{Priority: r.Uint64() % 512, Value: r.Uint64()}
					}
					if code := c.post("/v1/hot/enqueue-batch", EnqueueBatchRequest{Session: session, Items: items}, nil); code == http.StatusOK {
						mu.Lock()
						enq += n
						mu.Unlock()
					}
				} else {
					var resp DeleteMinResponse
					if code := c.post("/v1/hot/delete-min-up-to", DeleteMinRequest{Session: session, Max: 1 + r.Intn(4)}, &resp); code == http.StatusOK {
						mu.Lock()
						deq += len(resp.Items)
						mu.Unlock()
					}
				}
			}
			c.post("/v1/hot/session/close", SessionCloseRequest{Session: session}, nil)
		}(w)
	}
	snapErrs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		time.Sleep(2 * time.Millisecond)
		if err := s.Snapshot(); err != nil {
			snapErrs <- err
		}
	}
	wg.Wait()
	close(snapErrs)
	for err := range snapErrs {
		t.Fatalf("Snapshot under traffic: %v", err)
	}

	// Crash-style abandon, then recover and audit the ledger.
	s2 := New(Config{Queues: 4, Batch: 8, Seed: 31, Durability: &Durability{Dir: dir}})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer s2.Close()
	th, ok := s2.tenant([]byte("hot"))
	if !ok {
		t.Fatal("tenant hot missing")
	}
	if got, want := th.mq.Len(), enq-deq; got != want {
		t.Errorf("recovered queue = %d, want %d (enq %d deq %d)", got, want, enq, deq)
	}
	if got := th.opsEnqueued.Load(); got != uint64(enq) {
		t.Errorf("OpsEnqueued = %d, want %d", got, enq)
	}
	if got := th.opsDequeued.Load(); got != uint64(deq) {
		t.Errorf("OpsDequeued = %d, want %d", got, deq)
	}
}

// TestJanitorSnapshotTrigger pins the SnapshotBytes rung: once the journal
// outgrows the trigger, a janitor tick writes a snapshot.
func TestJanitorSnapshotTrigger(t *testing.T) {
	dir := t.TempDir()
	s, c := newDurableClient(t, dir, Config{Queues: 2, Batch: 4, Seed: 7,
		Durability: &Durability{Dir: dir, SnapshotBytes: 8 << 10}})
	stop := s.StartJanitor()
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for s.snapshotsTaken.Load() == 0 {
		if code := c.post("/v1/j/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(1, 2, 3, 4)}, nil); code != http.StatusOK {
			t.Fatalf("enqueue = %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never snapshotted: %d wal bytes", s.log().BytesAppended())
		}
	}
}
