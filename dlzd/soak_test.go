package dlzd

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// soakOps scales the soak workload (total wire operations across all
// workers). CI runs the race-enabled soak with a reduced count; the default
// suits a laptop `go test ./dlzd`.
var soakOps = flag.Int("soakops", 6000, "total wire operations for TestDaemonSoak")

// tenantLedger is the client-side ground truth the conservation check
// compares against: every element and delta a worker pushed through the
// wire, counted at the moment the daemon acknowledged the request.
type tenantLedger struct {
	enqueued   atomic.Int64  // elements accepted by enqueue-batch
	dequeued   atomic.Int64  // elements returned by delete-min-up-to
	counterSum atomic.Uint64 // sum of deltas accepted by counter/add-batch
	metered    atomic.Uint64 // operations metered into the quota counter
}

// TestDaemonSoak drives ≥4 tenants with concurrent sessions through the wire
// API, disconnects sessions mid-run — half cleanly (session/close), half by
// abandonment (reaped by ExpireIdle) — and then asserts exact conservation:
// after the final flush every tenant's published queue length equals
// enqueues minus dequeues, the counter's exact sum equals the delta total,
// and the quota meter equals the operations admitted. Run it with -race;
// the lease lifecycle, backpressure gate and handle buffers are all on the
// hot path here.
func TestDaemonSoak(t *testing.T) {
	const (
		tenants          = 4
		workersPerTenant = 3
	)
	s, c := newTestServer(t, Config{
		Queues:     8,
		Batch:      8,
		Stickiness: 16,
		Choices:    2,
		Seed:       42,
	})

	ledgers := make([]*tenantLedger, tenants)
	for i := range ledgers {
		ledgers[i] = &tenantLedger{}
	}

	workers := tenants * workersPerTenant
	iters := *soakOps / workers
	if iters < 10 {
		iters = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			tenantID := w % tenants
			led := ledgers[tenantID]
			base := fmt.Sprintf("/v1/soak%d", tenantID)
			r := rand.New(rand.NewSource(int64(1000 + w)))
			session := fmt.Sprintf("w%d-a", w)

			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Errorf(format, args...):
				default:
				}
			}
			for i := 0; i < iters; i++ {
				// Mid-run disconnect: halfway through, every worker drops its
				// first session — even workers close it over the wire, odd
				// workers abandon it with whatever it still buffers.
				if i == iters/2 {
					if w%2 == 0 {
						if code := c.post(base+"/session/close", SessionCloseRequest{Session: session}, nil); code != http.StatusOK {
							fail("worker %d: mid-run close = %d", w, code)
							return
						}
					}
					session = fmt.Sprintf("w%d-b", w)
				}
				switch r.Intn(4) {
				case 0, 1: // enqueue a small batch
					n := 1 + r.Intn(8)
					items := make([]WireItem, n)
					for j := range items {
						p := r.Uint64()
						items[j] = WireItem{Priority: p, Value: p ^ 0xD1CE}
					}
					if code := c.post(base+"/enqueue-batch", EnqueueBatchRequest{Session: session, Items: items}, nil); code != http.StatusOK {
						fail("worker %d: enqueue = %d", w, code)
						return
					}
					led.enqueued.Add(int64(n))
					led.metered.Add(uint64(n))
				case 2: // dequeue a small batch
					max := 1 + r.Intn(8)
					var deq DeleteMinResponse
					if code := c.post(base+"/delete-min-up-to", DeleteMinRequest{Session: session, Max: max}, &deq); code != http.StatusOK {
						fail("worker %d: delete-min = %d", w, code)
						return
					}
					for _, it := range deq.Items {
						if it.Value != it.Priority^0xD1CE {
							fail("worker %d: corrupted element %+v", w, it)
							return
						}
					}
					led.dequeued.Add(int64(len(deq.Items)))
					led.metered.Add(uint64(max))
				case 3: // counter adds
					n := 1 + r.Intn(6)
					deltas := make([]uint64, n)
					var sum uint64
					for j := range deltas {
						deltas[j] = uint64(1 + r.Intn(100))
						sum += deltas[j]
					}
					if code := c.post(base+"/counter/add-batch", CounterAddRequest{Session: session, Deltas: deltas}, nil); code != http.StatusOK {
						fail("worker %d: counter add = %d", w, code)
						return
					}
					led.counterSum.Add(sum)
					led.metered.Add(uint64(n))
				}
			}
			// End of run: even workers disconnect cleanly, odd workers
			// abandon their second session too.
			if w%2 == 0 {
				if code := c.post(base+"/session/close", SessionCloseRequest{Session: session}, nil); code != http.StatusOK {
					fail("worker %d: final close = %d", w, code)
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Final flush: reap every abandoned session. Nothing may be lost.
	s.ExpireIdle(time.Now().Add(time.Hour))

	for i := 0; i < tenants; i++ {
		led := ledgers[i]
		var st StatsResponse
		if code := c.get(fmt.Sprintf("/v1/soak%d/stats", i), &st); code != http.StatusOK {
			t.Fatalf("tenant %d stats = %d", i, code)
		}
		if st.Leases != 0 {
			t.Errorf("tenant %d: %d leases survived the sweep", i, st.Leases)
		}
		wantLen := led.enqueued.Load() - led.dequeued.Load()
		if int64(st.QueueLen) != wantLen {
			t.Errorf("tenant %d: queue conservation violated: Len=%d, enqueued-dequeued=%d",
				i, st.QueueLen, wantLen)
		}
		if st.CounterExact != led.counterSum.Load() {
			t.Errorf("tenant %d: counter conservation violated: Exact=%d, delta sum=%d",
				i, st.CounterExact, led.counterSum.Load())
		}
		if st.QuotaUsed != led.metered.Load() {
			t.Errorf("tenant %d: quota meter drifted: QuotaUsed=%d, metered=%d",
				i, st.QuotaUsed, led.metered.Load())
		}
		if st.BufferedEnqueues != 0 || st.BufferedCounterOps != 0 || st.PrefetchedDequeues != 0 {
			t.Errorf("tenant %d: handle-local state survived the final flush: %+v", i, st)
		}
	}

	// The instrumented internals moved under load and export cleanly.
	m := c.metrics()
	for _, series := range []string{
		"dlzd_queue_elisions_total", "dlzd_queue_publications_total",
		"dlzd_spin_backoff_total", "dlzd_sampler_rerolls_total",
		"dlzd_leases_expired_total",
	} {
		if v := lineValue(t, m, series); v == "" {
			t.Errorf("series %s missing a value", series)
		}
	}
	var pubs uint64
	if _, err := fmt.Sscanf(lineValue(t, m, "dlzd_queue_publications_total"), "%d", &pubs); err != nil || pubs == 0 {
		t.Errorf("soak should have published batches: %v", err)
	}
}
