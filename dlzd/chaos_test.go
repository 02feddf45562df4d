//go:build dlzfail

package dlzd

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/fail"
)

// chaosSeed seeds both the failpoint schedule (fail.SetSeed) and the chaos
// conductor's round sequence. The CI chaos job runs the fixed default plus a
// randomized seed; any failing seed reproduces its schedule exactly.
var chaosSeed = flag.Int64("chaosseed", 1, "seed for the chaos fault schedule")

// TestChaosSoak drives 4 tenants of live wire traffic while a seeded
// conductor cycles fault regimes over the failpoint layer — injected handler
// panics, critical-section and publication delays, a handler stall, try-path
// refusal storms, close-ladder faults and forced lease expiry sweeps — then
// runs a deterministic coverage pass that provably fires every fault kind,
// quiesces, and asserts exact conservation from the server's defer-committed
// ledger: QueueLen == OpsEnqueued − OpsDequeued, CounterExact ==
// CounterDeltaSum, QuotaUsed == OpsMetered, zero surviving leases, zero
// repair failures. Run with -race; reproduce a failure with its printed
// -chaosseed.
func TestChaosSoak(t *testing.T) {
	const (
		tenants          = 4
		workersPerTenant = 2
		itersPerWorker   = 150
	)
	t.Logf("chaos schedule seed %d", *chaosSeed)
	fail.Reset()
	defer fail.Reset()
	fail.SetSeed(uint64(*chaosSeed))

	s := New(Config{Queues: 8, Batch: 8, Stickiness: 16, Choices: 2, Seed: 42})
	// A shorter deadline and a far lower shed target than the daemon's, so
	// that the injected delays and stalls reach both rungs.
	s.ladder.requestTimeout = 500 * time.Millisecond
	s.ladder.shedTarget = 5 * time.Millisecond
	c := serveLoopback(t, s)

	// Conductor: one fault regime per round while the workers run. Fires are
	// accumulated per kind for the log; coverage is *proven* afterwards by
	// the deterministic pass, so the random phase never flakes on timing.
	var (
		stop        = make(chan struct{})
		conductorWG sync.WaitGroup
		kindFires   = map[string]uint64{} // conductor-goroutine-local until joined
	)
	conductorWG.Add(1)
	go func() {
		defer conductorWG.Done()
		r := rand.New(rand.NewSource(*chaosSeed))
		collect := func(kind string, sites ...string) {
			for _, site := range sites {
				kindFires[kind] += fail.Fires(site)
			}
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch r.Intn(5) {
			case 0: // handler and flush panics (repaired by the envelope)
				fail.Arm(fail.SiteDlzdEnqueueItem, fail.Policy{Kind: fail.KindPanic, After: uint64(r.Intn(16)), Count: 2})
				fail.Arm(fail.SiteCoreFlush, fail.Policy{Kind: fail.KindPanic, Count: 1})
				time.Sleep(15 * time.Millisecond)
				collect("panic", fail.SiteDlzdEnqueueItem, fail.SiteCoreFlush)
			case 1: // critical-section, publication and response delays
				fail.Arm(fail.SitePadLockHold, fail.Policy{Kind: fail.KindDelay, Delay: time.Millisecond, Count: 16})
				fail.Arm(fail.SiteCPQTopPublish, fail.Policy{Kind: fail.KindDelay, Delay: time.Millisecond, Count: 16})
				fail.Arm(fail.SiteDlzdHandlerPost, fail.Policy{Kind: fail.KindDelay, Delay: 8 * time.Millisecond, Count: 4})
				time.Sleep(15 * time.Millisecond)
				collect("delay", fail.SitePadLockHold, fail.SiteCPQTopPublish, fail.SiteDlzdHandlerPost)
			case 2: // stall one admitted request, release at round end
				fail.Arm(fail.SiteDlzdHandlerPre, fail.Policy{Kind: fail.KindStall, Count: 1})
				time.Sleep(15 * time.Millisecond)
				fail.Release(fail.SiteDlzdHandlerPre)
				collect("stall", fail.SiteDlzdHandlerPre)
			case 3: // refusal/reroll storms plus close-ladder faults
				fail.Arm(fail.SiteCPQTryRefuse, fail.Policy{Kind: fail.KindError, Prob: 0.3})
				fail.Arm(fail.SiteCoreReroll, fail.Policy{Kind: fail.KindError, Prob: 0.3})
				fail.Arm(fail.SiteDlzdLeaseClose, fail.Policy{Kind: fail.KindError, Count: 3})
				time.Sleep(15 * time.Millisecond)
				collect("error", fail.SiteCPQTryRefuse, fail.SiteCoreReroll, fail.SiteDlzdLeaseClose)
			case 4: // forced expiry sweep racing live requests
				fail.Arm(fail.SiteDlzdJanitor, fail.Policy{Kind: fail.KindDelay, Delay: 2 * time.Millisecond, Count: 8})
				kindFires["expiry"] += uint64(s.ExpireIdle(time.Now()))
				time.Sleep(5 * time.Millisecond)
				collect("delay", fail.SiteDlzdJanitor)
			}
			fail.Reset()
		}
	}()

	// Workers: live traffic that tolerates every rung of the degradation
	// ladder (429 shed, 503 busy/deadline, 500 injected) — only transport
	// failures and corrupted payloads are errors.
	var wg sync.WaitGroup
	workers := tenants * workersPerTenant
	wg.Add(workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			tenantID := w % tenants
			base := fmt.Sprintf("/v1/chaos%d", tenantID)
			r := rand.New(rand.NewSource(*chaosSeed ^ int64(w)<<32))
			session := fmt.Sprintf("w%d", w)
			for i := 0; i < itersPerWorker; i++ {
				switch r.Intn(6) {
				case 0, 1:
					n := 1 + r.Intn(8)
					items := make([]WireItem, n)
					for j := range items {
						p := r.Uint64()
						items[j] = WireItem{Priority: p, Value: p ^ 0xD1CE}
					}
					c.post(base+"/enqueue-batch", EnqueueBatchRequest{Session: session, Items: items}, nil)
				case 2:
					var deq DeleteMinResponse
					if code := c.post(base+"/delete-min-up-to", DeleteMinRequest{Session: session, Max: 1 + r.Intn(8)}, &deq); code == http.StatusOK {
						for _, it := range deq.Items {
							if it.Value != it.Priority^0xD1CE {
								select {
								case errs <- fmt.Errorf("worker %d: corrupted element %+v", w, it):
								default:
								}
								return
							}
						}
					}
				case 3:
					n := 1 + r.Intn(4)
					deltas := make([]uint64, n)
					for j := range deltas {
						deltas[j] = uint64(1 + r.Intn(100))
					}
					c.post(base+"/counter/add-batch", CounterAddRequest{Session: session, Deltas: deltas}, nil)
				case 4:
					c.get(base+"/counter/read?session="+session, nil)
				case 5:
					if r.Intn(8) == 0 {
						c.post(base+"/session/close", SessionCloseRequest{Session: session}, nil)
					} else {
						c.get(base+"/stats", nil)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	conductorWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	t.Logf("random phase fires: %v", kindFires)

	// Deterministic coverage pass: fire every fault kind at least once with
	// targeted requests, independent of how the random phase was scheduled.
	coverageFires := chaosCoveragePass(t, c)

	// Quiesce: no armed faults, every lease reaped through the close ladder.
	fail.Reset()
	expired := s.ExpireIdle(time.Now().Add(time.Hour))
	kindFires["expiry"] += uint64(expired)
	if kindFires["expiry"] == 0 {
		t.Error("no lease was ever force-expired — the forced-expiry fault kind lost coverage")
	}
	for kind, n := range coverageFires {
		if n == 0 {
			t.Errorf("fault kind %q did not fire in the deterministic coverage pass", kind)
		}
	}

	var totalPanics uint64
	for i := 0; i < tenants; i++ {
		var st StatsResponse
		if code := c.get(fmt.Sprintf("/v1/chaos%d/stats", i), &st); code != http.StatusOK {
			t.Fatalf("tenant %d stats = %d", i, code)
		}
		if st.Leases != 0 {
			t.Errorf("tenant %d: %d leases survived the sweep", i, st.Leases)
		}
		if st.RepairFailures != 0 {
			t.Errorf("tenant %d: %d lease retirements exhausted the repair ladder", i, st.RepairFailures)
		}
		if int64(st.QueueLen) != int64(st.OpsEnqueued)-int64(st.OpsDequeued) {
			t.Errorf("tenant %d: queue conservation violated: Len=%d, applied enq-deq=%d-%d",
				i, st.QueueLen, st.OpsEnqueued, st.OpsDequeued)
		}
		if st.CounterExact != st.CounterDeltaSum {
			t.Errorf("tenant %d: counter conservation violated: Exact=%d, applied delta sum=%d",
				i, st.CounterExact, st.CounterDeltaSum)
		}
		if st.QuotaUsed != st.OpsMetered {
			t.Errorf("tenant %d: quota meter drifted: QuotaUsed=%d, metered=%d",
				i, st.QuotaUsed, st.OpsMetered)
		}
		if st.BufferedEnqueues != 0 || st.BufferedCounterOps != 0 || st.PrefetchedDequeues != 0 {
			t.Errorf("tenant %d: handle-local state survived the sweep: %+v", i, st)
		}
		totalPanics += st.PanicsRecovered
	}
	if totalPanics == 0 {
		t.Error("no handler panic was recovered despite injected panic policies")
	}
}

// chaosCoveragePass arms one Count-bounded policy per fault kind and drives a
// request guaranteed to traverse it, returning observed fires per kind. It
// runs against tenant chaos0 with a dedicated session token.
func chaosCoveragePass(t *testing.T, c *testClient) map[string]uint64 {
	t.Helper()
	fires := map[string]uint64{}
	const base = "/v1/chaos0"
	batch := EnqueueBatchRequest{Session: "coverage", Items: wireItems(1, 2, 3)}

	// panic: first enqueued item faults, envelope answers 500 and repairs.
	fail.Reset()
	fail.Arm(fail.SiteDlzdEnqueueItem, fail.Policy{Kind: fail.KindPanic, Count: 1})
	if code := c.post(base+"/enqueue-batch", batch, nil); code != http.StatusInternalServerError {
		t.Errorf("coverage panic request = %d, want 500", code)
	}
	fires["panic"] = fail.Fires(fail.SiteDlzdEnqueueItem)

	// delay: response path sleeps once.
	fail.Reset()
	fail.Arm(fail.SiteDlzdHandlerPost, fail.Policy{Kind: fail.KindDelay, Delay: 2 * time.Millisecond, Count: 1})
	c.post(base+"/enqueue-batch", batch, nil)
	fires["delay"] = fail.Fires(fail.SiteDlzdHandlerPost)

	// stall: one request parks at admission until released.
	fail.Reset()
	fail.Arm(fail.SiteDlzdHandlerPre, fail.Policy{Kind: fail.KindStall, Count: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.get(base+"/stats", nil)
	}()
	for i := 0; fail.Fires(fail.SiteDlzdHandlerPre) == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	fires["stall"] = fail.Fires(fail.SiteDlzdHandlerPre)
	fail.Release(fail.SiteDlzdHandlerPre)
	<-done

	// error: the close ladder's first retirement attempt is refused once,
	// the second succeeds.
	fail.Reset()
	fail.Arm(fail.SiteDlzdLeaseClose, fail.Policy{Kind: fail.KindError, Count: 1})
	if code := c.post(base+"/session/close", SessionCloseRequest{Session: "coverage"}, nil); code != http.StatusOK {
		t.Errorf("coverage close = %d, want 200", code)
	}
	fires["error"] = fail.Fires(fail.SiteDlzdLeaseClose)
	fail.Reset()
	return fires
}

// TestHandlerPanicMidBatch is the regression pin for the repair envelope: a
// handler panicking halfway through an enqueue batch must (a) answer 500,
// (b) commit exactly the items applied before the fault, (c) strand no
// buffered element — the repair flush publishes them, (d) leak no in-flight
// budget, and (e) leave the session token immediately serviceable.
func TestHandlerPanicMidBatch(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	// MaxInFlight 1: a leaked in-flight slot would make every later request
	// fail 429, so (d) is load-bearing for the rest of the test.
	_, c := newTestServer(t, Config{Queues: 4, Batch: 8, Stickiness: 8, MaxInFlight: 1, Seed: 7})

	const applyBefore = 5
	fail.Arm(fail.SiteDlzdEnqueueItem, fail.Policy{Kind: fail.KindPanic, After: applyBefore, Count: 1})
	code := c.post("/v1/t/enqueue-batch",
		EnqueueBatchRequest{Session: "s1", Items: wireItems(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)}, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("mid-batch panic answered %d, want 500", code)
	}

	// (e)+(d): the same token serves the very next request.
	var enq EnqueueBatchResponse
	if code := c.post("/v1/t/enqueue-batch",
		EnqueueBatchRequest{Session: "s1", Items: wireItems(11, 12)}, &enq); code != http.StatusOK {
		t.Fatalf("request after repaired panic = %d, want 200", code)
	}

	var st StatsResponse
	if code := c.get("/v1/t/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.PanicsRecovered != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", st.PanicsRecovered)
	}
	if want := uint64(applyBefore + 2); st.OpsEnqueued != want {
		t.Errorf("OpsEnqueued = %d, want %d (items before the panic plus the follow-up)", st.OpsEnqueued, want)
	}
	// (c): nothing stranded — after closing the session every applied item
	// is published and conservation is exact.
	if code := c.post("/v1/t/session/close", SessionCloseRequest{Session: "s1"}, nil); code != http.StatusOK {
		t.Fatalf("close = %d", code)
	}
	if code := c.get("/v1/t/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if int64(st.QueueLen) != int64(st.OpsEnqueued)-int64(st.OpsDequeued) {
		t.Errorf("conservation violated after repair: Len=%d enq=%d deq=%d",
			st.QueueLen, st.OpsEnqueued, st.OpsDequeued)
	}
	if st.RepairFailures != 0 {
		t.Errorf("RepairFailures = %d, want 0", st.RepairFailures)
	}
}

// TestJanitorExpiryRace pins the expiry sweep against live traffic: with the
// janitor's delink-to-close window stretched by an injected delay and close
// ladders faulting, concurrent requests keep using the tokens being expired.
// Every race resolution is legal (a request lands on the old lease before
// its close, or opens a fresh lease); what must hold afterwards is exact
// conservation and a clean lease ledger.
func TestJanitorExpiryRace(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	fail.SetSeed(uint64(*chaosSeed))
	s, c := newTestServer(t, Config{Queues: 4, Batch: 8, Stickiness: 8, Seed: 11})

	fail.Arm(fail.SiteDlzdJanitor, fail.Policy{Kind: fail.KindDelay, Delay: 500 * time.Microsecond})
	// Every-other-attempt refusal: a retirement ladder can lose at most
	// half its retireAttempts tries, so it always converges — a Prob-based
	// policy could (rarely) fire 8 straight times and exhaust the ladder.
	fail.Arm(fail.SiteDlzdLeaseClose, fail.Policy{Kind: fail.KindError, Every: 2, Count: 40})
	fail.Arm(fail.SiteCoreFlush, fail.Policy{Kind: fail.KindPanic, Every: 7, Count: 10})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the janitor, sweeping everything it sees, continuously
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.ExpireIdle(time.Now())
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	const workers = 4
	var workerWG sync.WaitGroup
	workerWG.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer workerWG.Done()
			session := fmt.Sprintf("race%d", w)
			for i := 0; i < 120; i++ {
				c.post("/v1/janitor/enqueue-batch",
					EnqueueBatchRequest{Session: session, Items: wireItems(uint64(i + 1))}, nil)
				if i%3 == 0 {
					c.post("/v1/janitor/delete-min-up-to", DeleteMinRequest{Session: session, Max: 2}, nil)
				}
			}
			if w == 0 { // one worker also closes explicitly, racing the sweeps
				c.post("/v1/janitor/session/close", SessionCloseRequest{Session: session}, nil)
			}
		}(w)
	}
	workerWG.Wait()
	close(stop)
	wg.Wait()

	fail.Reset()
	s.ExpireIdle(time.Now().Add(time.Hour))
	var st StatsResponse
	if code := c.get("/v1/janitor/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.Leases != 0 {
		t.Errorf("%d leases survived the final sweep", st.Leases)
	}
	if st.RepairFailures != 0 {
		t.Errorf("RepairFailures = %d, want 0", st.RepairFailures)
	}
	if int64(st.QueueLen) != int64(st.OpsEnqueued)-int64(st.OpsDequeued) {
		t.Errorf("conservation violated under expiry races: Len=%d enq=%d deq=%d",
			st.QueueLen, st.OpsEnqueued, st.OpsDequeued)
	}
	if st.BufferedEnqueues != 0 || st.PrefetchedDequeues != 0 {
		t.Errorf("handle-local state survived the sweep: %+v", st)
	}
}

// TestDeadlineMidBatch pins the apply loops' deadline stride on a deadline
// that runs out while a batch is being applied: every item is slowed by an
// injected 1ms delay against a 20ms deadline, so a 512-item enqueue must
// stop with 503 and a delete-min-up-to of 512 with a truncated 200, each
// having applied some items but not all, no more than 64 of them after the
// deadline passed, and with the server's ledger exact.
func TestDeadlineMidBatch(t *testing.T) {
	const (
		timeout = 20 * time.Millisecond
		delay   = time.Millisecond
		n       = 512
		// Each item takes at least delay, so at most timeout/delay of them
		// are applied before the deadline, and at most 64 after it.
		maxApplied = int(timeout/delay) + 64
	)
	fail.Reset()
	defer fail.Reset()
	// Batch 1: every dequeue is one draw, so the reroll site's delay is paid
	// per dequeued item.
	s := New(Config{Queues: 4, Batch: 1, Seed: 23})
	s.ladder.requestTimeout = timeout
	c := serveLoopback(t, s)
	prios := make([]uint64, n)
	for i := range prios {
		prios[i] = uint64(i + 1)
	}
	stats := func(tenant string) StatsResponse {
		t.Helper()
		var st StatsResponse
		if code := c.get("/v1/"+tenant+"/stats", &st); code != http.StatusOK {
			t.Fatalf("stats = %d", code)
		}
		return st
	}

	// enqueue-batch: 503, with the applied items committed and published.
	fail.Arm(fail.SiteDlzdEnqueueItem, fail.Policy{Kind: fail.KindDelay, Delay: delay})
	if code := c.post("/v1/enq/enqueue-batch",
		EnqueueBatchRequest{Session: "s", Items: wireItems(prios...)}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("enqueue past its deadline = %d, want 503", code)
	}
	fail.Reset()
	if code := c.post("/v1/enq/session/close", SessionCloseRequest{Session: "s"}, nil); code != http.StatusOK {
		t.Fatalf("close = %d", code)
	}
	st := stats("enq")
	if st.OpsEnqueued == 0 || st.OpsEnqueued >= n {
		t.Errorf("enqueue applied %d of %d items, want some but not all", st.OpsEnqueued, n)
	}
	if int(st.OpsEnqueued) > maxApplied {
		t.Errorf("enqueue applied %d items, more than 64 after the deadline", st.OpsEnqueued)
	}
	if uint64(st.QueueLen) != st.OpsEnqueued {
		t.Errorf("queue length %d, OpsEnqueued %d, want equal", st.QueueLen, st.OpsEnqueued)
	}

	// delete-min-up-to: a truncated 200. The fill is in batches of one
	// stride, which no deadline cuts.
	for i := 0; i < n; i += deadlineStride {
		if code := c.post("/v1/deq/enqueue-batch",
			EnqueueBatchRequest{Session: "s", Items: wireItems(prios[i : i+deadlineStride]...)}, nil); code != http.StatusOK {
			t.Fatalf("fill = %d", code)
		}
	}
	fail.Arm(fail.SiteCoreReroll, fail.Policy{Kind: fail.KindDelay, Delay: delay})
	var deq DeleteMinResponse
	if code := c.post("/v1/deq/delete-min-up-to",
		DeleteMinRequest{Session: "s", Max: n}, &deq); code != http.StatusOK {
		t.Fatalf("delete-min past its deadline = %d, want a truncated 200", code)
	}
	fail.Reset()
	if !deq.Truncated || len(deq.Items) == 0 || len(deq.Items) >= n {
		t.Errorf("delete-min: truncated %v with %d of %d items, want truncated with some but not all",
			deq.Truncated, len(deq.Items), n)
	}
	if len(deq.Items) > maxApplied {
		t.Errorf("delete-min removed %d items, more than 64 after the deadline", len(deq.Items))
	}
	if code := c.post("/v1/deq/session/close", SessionCloseRequest{Session: "s"}, nil); code != http.StatusOK {
		t.Fatalf("close = %d", code)
	}
	st = stats("deq")
	if st.OpsDequeued != uint64(len(deq.Items)) || int64(st.QueueLen) != int64(st.OpsEnqueued)-int64(st.OpsDequeued) {
		t.Errorf("ledger: Len=%d enq=%d deq=%d, answered %d items", st.QueueLen, st.OpsEnqueued, st.OpsDequeued, len(deq.Items))
	}
}
