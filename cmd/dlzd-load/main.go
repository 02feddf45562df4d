// Command dlzd-load drives a running dlzd daemon with a Zipf-skewed
// multi-tenant workload: tenants are drawn from a Zipf distribution (hot
// tenants get most of the traffic, like real multi-tenant skew) and enqueue
// priorities are drawn from a second Zipf over a large key universe (hot
// keys contend on the same relaxed minima). Each worker goroutine holds one
// session token per tenant, so the daemon's lease stickiness is exercised
// exactly as a long-lived client connection would.
//
// Usage:
//
//	dlzd-load -addr http://localhost:8377 -workers 8 -ops 200000
//
// The run ends by closing every session (flushing the leases) and printing
// per-tenant conservation stats plus wire-operation throughput.
//
// With -expect-restart the client is a crash-recovery verifier (DESIGN.md
// §12): it keeps an acked ledger (operations the daemon answered 200 for —
// journaled before the ack, so they must survive a kill) and a maybe ledger
// (requests whose response was lost — the daemon may or may not have applied
// and journaled them), rides out daemon downtime by polling /readyz, and at
// the end asserts the recovered state sits inside the [acked, acked+maybe]
// envelope, printing a RECOVERY PASS/FAIL verdict (exit 1 on FAIL). An
// acked-but-lost operation — the one thing the WAL forbids — is always a
// FAIL; the maybe slack is the documented at-most-one-in-flight-request
// overshoot per worker.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/dlzd"
	"repro/internal/pad"
	"repro/internal/rng"
)

// newClient returns the one http.Client a run shares. Its transport keeps a
// keep-alive connection per concurrent worker; the default transport keeps
// two per host and closes every other one after each request.
func newClient(workers int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns, tr.MaxIdleConnsPerHost = 0, workers
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// drainClose reads a response body to EOF and closes it. The transport reuses
// a connection only when its response was read to the end, and a json.Decoder
// stops at the end of the value — before the newline the daemon writes after
// it — so a body closed right after Decode cost one connection per request.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	body.Close()
}

// postJSON posts body and decodes a 2xx response into out. On a non-2xx it
// surfaces what the retry policy needs: the server's Retry-After hint (zero
// when absent) and the error body's message (which distinguishes a load shed
// from an exhausted quota or a busy session at the same status code).
func postJSON(client *http.Client, url string, body, out any) (code int, retryAfter time.Duration, errMsg string, err error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, 0, "", err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, 0, "", err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode/100 == 2 {
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, 0, "", err
			}
		}
		return resp.StatusCode, 0, "", nil
	}
	if secs, convErr := strconv.Atoi(resp.Header.Get("Retry-After")); convErr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	var e dlzd.ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&e) == nil {
		errMsg = e.Error
	}
	return resp.StatusCode, retryAfter, errMsg, nil
}

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8377", "dlzd base URL")
		tenants   = flag.Int("tenants", 4, "tenant namespaces to spread load over")
		workers   = flag.Int("workers", 8, "concurrent client sessions")
		ops       = flag.Int("ops", 100000, "total wire operations")
		batch     = flag.Int("batch", 8, "max items per wire batch")
		thetaT    = flag.Float64("zipf-tenant", 0.9, "Zipf theta for tenant skew")
		thetaP    = flag.Float64("zipf-prio", 0.8, "Zipf theta for priority skew")
		prioSpace = flag.Int("prio-space", 1<<20, "priority key universe")
		seed      = flag.Uint64("seed", 99, "workload seed")
		quiet     = flag.Bool("quiet", false, "suppress per-tenant stats")
		ramp      = flag.String("ramp-workers", "",
			"staged concurrency ramp lo:hi:step — split -ops across stages of lo, lo+step, ... hi workers; overrides -workers")
		maxRetries = flag.Int("max-retries", 64, "give up after this many consecutive 429/503 rejections")
		retryBase  = flag.Duration("retry-base", 0, "first retry's maximum jittered delay (0 = 5ms)")
		retryCap   = flag.Duration("retry-cap", 0, "retry delay growth cap (0 = 1s)")
		raMax      = flag.Duration("retry-after-max", 0,
			"cap on the honored Retry-After hint — the shed ladder hints whole seconds, which a polite client honors fully but a saturation benchmark may bound (0 = honor fully)")
		expectRestart = flag.Bool("expect-restart", false,
			"crash-recovery verifier mode: ride out daemon kills (poll /readyz), track acked vs maybe-applied ledgers, assert conservation after recovery and print a RECOVERY PASS/FAIL verdict")
		restartTimeout = flag.Duration("restart-timeout", 60*time.Second,
			"-expect-restart: give up if the daemon is not ready again within this window")
	)
	flag.Parse()
	if *tenants < 1 || *workers < 1 || *batch < 1 || *batch > dlzd.MaxWireBatch {
		fmt.Fprintln(os.Stderr, "dlzd-load: -tenants/-workers must be >= 1 and -batch in [1, 4096]")
		os.Exit(2)
	}

	var (
		wg        sync.WaitGroup
		opCount   atomic.Int64
		rejected  atomic.Int64
		retries   atomic.Int64 // jittered retry sleeps taken
		sheds     atomic.Int64 // rejections that were adaptive load sheds
		busy      atomic.Int64 // 503 session-busy rejections
		enqueued  = make([]atomic.Int64, *tenants)
		dequeued  = make([]atomic.Int64, *tenants)
		deltaSums = make([]atomic.Uint64, *tenants)
		// Maybe ledgers (-expect-restart): upper bounds on what a request
		// with a lost response could have applied. A lost delete-min is
		// bounded by its requested max — the response carrying the real count
		// never arrived.
		maybeEnq    = make([]atomic.Int64, *tenants)
		maybeDeq    = make([]atomic.Int64, *tenants)
		maybeDeltas = make([]atomic.Uint64, *tenants)
		disruptions atomic.Int64 // transport errors ridden out in -expect-restart
	)
	// One stage at -workers by default; -ramp-workers splits the op budget
	// across stages of increasing concurrency, so one run shows the daemon
	// under rising contention.
	stages := []int{*workers}
	if *ramp != "" {
		lo, hi, step, err := parseRamp(*ramp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlzd-load:", err)
			os.Exit(2)
		}
		stages = stages[:0]
		for n := lo; n < hi; n += step {
			stages = append(stages, n)
		}
		stages = append(stages, hi)
	}

	maxWorkers := 0
	for _, n := range stages {
		maxWorkers = max(maxWorkers, n)
	}
	client := newClient(maxWorkers)

	worker := func(w, perWorker int) {
		defer wg.Done()
		r := rng.NewXoshiro256(*seed + uint64(w)*0x9E3779B97F4A7C15)
		tenantZipf := rng.NewZipf(r, *tenants, *thetaT)
		prioZipf := rng.NewZipf(r, *prioSpace, *thetaP)
		session := fmt.Sprintf("load-w%d", w)
		// Full-jitter exponential backoff for 429/503 rejections, honoring
		// the server's Retry-After as the delay floor — the shed rungs hint
		// 1/2/4s precisely so a rejected fleet spreads out instead of
		// re-synchronizing into the herd that caused the shedding.
		bo := pad.NewRetryBackoff(*retryBase, *retryCap, *seed+uint64(w))
		consecutive := 0
		for i := 0; i < perWorker; i++ {
			tn := tenantZipf.Next() // Zipf variates are already 0-based
			base := fmt.Sprintf("%s/v1/load%d", *addr, tn)
			var code int
			var retryAfter time.Duration
			var errMsg string
			var err error
			// Potential effect of this request, charged to the maybe ledger
			// when the response is lost mid-flight.
			var mEnq, mDeq int64
			var mDelta uint64
			switch r.Intn(4) {
			case 0, 1:
				n := 1 + r.Intn(*batch)
				items := make([]dlzd.WireItem, n)
				for j := range items {
					p := uint64(prioZipf.Next())
					items[j] = dlzd.WireItem{Priority: p, Value: p}
				}
				mEnq = int64(n)
				code, retryAfter, errMsg, err = postJSON(client, base+"/enqueue-batch",
					dlzd.EnqueueBatchRequest{Session: session, Items: items}, nil)
				if code == http.StatusOK {
					enqueued[tn].Add(int64(n))
				}
			case 2:
				max := 1 + r.Intn(*batch)
				mDeq = int64(max)
				var deq dlzd.DeleteMinResponse
				code, retryAfter, errMsg, err = postJSON(client, base+"/delete-min-up-to",
					dlzd.DeleteMinRequest{Session: session, Max: max}, &deq)
				if code == http.StatusOK {
					dequeued[tn].Add(int64(len(deq.Items)))
				}
			case 3:
				n := 1 + r.Intn(*batch)
				deltas := make([]uint64, n)
				var sum uint64
				for j := range deltas {
					deltas[j] = 1 + r.Uint64n(100)
					sum += deltas[j]
				}
				mDelta = sum
				code, retryAfter, errMsg, err = postJSON(client, base+"/counter/add-batch",
					dlzd.CounterAddRequest{Session: session, Deltas: deltas}, nil)
				if code == http.StatusOK {
					deltaSums[tn].Add(sum)
				}
			}
			if err != nil {
				if !*expectRestart {
					log.Printf("worker %d: %v", w, err)
					return
				}
				// A refused connection means the daemon was down before the
				// request was delivered: definitely not applied, no maybe
				// charge. Anything else (reset, EOF, timeout) lost the
				// response mid-flight — the daemon may have applied and
				// journaled the operation, so bound it in the maybe ledger.
				if !errors.Is(err, syscall.ECONNREFUSED) {
					maybeEnq[tn].Add(mEnq)
					maybeDeq[tn].Add(mDeq)
					maybeDeltas[tn].Add(mDelta)
				}
				disruptions.Add(1)
				if !waitReady(client, *addr, *restartTimeout) {
					log.Printf("worker %d: daemon not ready within %v", w, *restartTimeout)
					return
				}
				continue
			}
			switch {
			case *expectRestart && code == http.StatusServiceUnavailable &&
				(strings.Contains(errMsg, "recovering") || strings.Contains(errMsg, "closed") ||
					strings.Contains(errMsg, "draining")):
				// The daemon is draining for or replaying after a restart;
				// the request was cleanly rejected (nothing applied). Wait
				// out the downtime instead of burning the retry budget.
				disruptions.Add(1)
				if !waitReady(client, *addr, *restartTimeout) {
					log.Printf("worker %d: daemon not ready within %v", w, *restartTimeout)
					return
				}
			case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
				// Backpressure or a busy session: sleep the jittered
				// window (at least Retry-After), then press on with the
				// next drawn operation.
				rejected.Add(1)
				if strings.Contains(errMsg, "shed") {
					sheds.Add(1)
				}
				if code == http.StatusServiceUnavailable {
					busy.Add(1)
				}
				consecutive++
				if consecutive > *maxRetries {
					log.Printf("worker %d: giving up after %d consecutive rejections (last: %d %s)",
						w, consecutive, code, errMsg)
					return
				}
				if *raMax > 0 && retryAfter > *raMax {
					retryAfter = *raMax
				}
				retries.Add(1)
				time.Sleep(bo.Next(retryAfter))
			case code != http.StatusOK:
				log.Printf("worker %d: unexpected status %d (%s)", w, code, errMsg)
				return
			default:
				consecutive = 0
				bo.Reset()
				opCount.Add(1)
			}
		}
		// Flush the worker's leases on every tenant it may have touched. In
		// -expect-restart the close must land (it publishes buffered work the
		// verification below counts on), so ride out downtime and retry.
		for tn := 0; tn < *tenants; tn++ {
			base := fmt.Sprintf("%s/v1/load%d", *addr, tn)
			for attempt := 0; ; attempt++ {
				code, _, errMsg, err := postJSON(client, base+"/session/close",
					dlzd.SessionCloseRequest{Session: session}, nil)
				if err == nil && code/100 == 2 {
					break
				}
				if !*expectRestart || attempt >= 3 || !waitReady(client, *addr, *restartTimeout) {
					log.Printf("worker %d: close tenant %d: %v (%d %s)", w, tn, err, code, errMsg)
					break
				}
			}
		}
	}

	start := time.Now()
	nextWorker := 0
	for si, n := range stages {
		stageOps := *ops / len(stages)
		if si == len(stages)-1 {
			stageOps = *ops - stageOps*(len(stages)-1) // last stage takes the remainder
		}
		wg.Add(n)
		for i := 0; i < n; i++ {
			go worker(nextWorker, stageOps/n)
			nextWorker++
		}
		wg.Wait() // stage barrier: the next rung starts only after this one quiesces
	}
	elapsed := time.Since(start)

	fmt.Printf("dlzd-load: %d ops in %v (%.0f ops/s, %d ramp stages), %d rejections (%d shed, %d busy-503), %d jittered retries\n",
		opCount.Load(), elapsed.Round(time.Millisecond),
		float64(opCount.Load())/elapsed.Seconds(), len(stages), rejected.Load(), sheds.Load(), busy.Load(), retries.Load())

	if *expectRestart {
		// The daemon may still be mid-restart from a kill landing after the
		// last worker op; settle before reading stats.
		if !waitReady(client, *addr, *restartTimeout) {
			fmt.Println("RECOVERY FAIL: daemon never became ready for verification")
			os.Exit(1)
		}
		pass := true
		for tn := 0; tn < *tenants; tn++ {
			var st dlzd.StatsResponse
			if err := getStats(client, *addr, tn, &st); err != nil {
				fmt.Printf("RECOVERY FAIL: stats tenant load%d: %v\n", tn, err)
				os.Exit(1)
			}
			queue := int64(st.QueueLen) + int64(st.BufferedEnqueues) + int64(st.PrefetchedDequeues)
			// Acked enqueues were journaled before their 200 and acked
			// deletes likewise: the floor is acked-in minus acked-out minus
			// what a lost-response delete could have removed, the ceiling
			// adds what a lost-response enqueue could have inserted.
			low := enqueued[tn].Load() - dequeued[tn].Load() - maybeDeq[tn].Load()
			if low < 0 {
				low = 0
			}
			high := enqueued[tn].Load() + maybeEnq[tn].Load() - dequeued[tn].Load()
			counter := st.CounterExact + st.BufferedCounterWeight
			cLow, cHigh := deltaSums[tn].Load(), deltaSums[tn].Load()+maybeDeltas[tn].Load()
			switch {
			case queue < low:
				fmt.Printf("RECOVERY FAIL tenant load%d: %d acked elements lost (queue=%d, floor=%d)\n",
					tn, low-queue, queue, low)
				pass = false
			case queue > high:
				fmt.Printf("RECOVERY FAIL tenant load%d: %d unacked elements resurfaced beyond the maybe envelope (queue=%d, ceiling=%d)\n",
					tn, queue-high, queue, high)
				pass = false
			case counter < cLow || counter > cHigh:
				fmt.Printf("RECOVERY FAIL tenant load%d: counter=%d outside acked envelope [%d, %d]\n",
					tn, counter, cLow, cHigh)
				pass = false
			default:
				fmt.Printf("  tenant load%d: queue=%d in [%d, %d], counter=%d in [%d, %d] (maybe: +%d/-%d elems, +%d weight)\n",
					tn, queue, low, high, counter, cLow, cHigh,
					maybeEnq[tn].Load(), maybeDeq[tn].Load(), maybeDeltas[tn].Load())
			}
		}
		if !pass {
			fmt.Printf("RECOVERY FAIL (%d disruptions ridden out)\n", disruptions.Load())
			os.Exit(1)
		}
		fmt.Printf("RECOVERY PASS: conservation holds across %d disruptions (acked-op loss = 0)\n", disruptions.Load())
		return
	}
	if *quiet {
		return
	}
	for tn := 0; tn < *tenants; tn++ {
		var st dlzd.StatsResponse
		if err := getStats(client, *addr, tn, &st); err != nil {
			log.Printf("stats tenant %d: %v", tn, err)
			continue
		}
		want := enqueued[tn].Load() - dequeued[tn].Load()
		verdict := "OK"
		// With all sessions closed the published length must match the
		// client ledger exactly; residual leases (another client's) would
		// show up as buffered state.
		if int64(st.QueueLen)+int64(st.BufferedEnqueues)+int64(st.PrefetchedDequeues) != want ||
			st.CounterExact+st.BufferedCounterWeight != deltaSums[tn].Load() {
			verdict = "MISMATCH"
		}
		fmt.Printf("  tenant load%d: queue=%d (ledger %d) counter=%d (ledger %d) leases=%d quota=%d [%s]\n",
			tn, st.QueueLen, want, st.CounterExact, deltaSums[tn].Load(), st.Leases, st.QuotaUsed, verdict)
	}
}

// waitReady polls GET /readyz until the daemon answers 200, sleeping between
// probes (connection errors and 503s both mean "not yet"). Returns false if
// the window expires first.
func waitReady(client *http.Client, addr string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(addr + "/readyz")
		if err == nil {
			code := resp.StatusCode
			drainClose(resp.Body)
			if code == http.StatusOK {
				return true
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

// getStats fetches and decodes one tenant's /stats.
func getStats(client *http.Client, addr string, tn int, st *dlzd.StatsResponse) error {
	resp, err := client.Get(fmt.Sprintf("%s/v1/load%d/stats", addr, tn))
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(st)
}

// parseRamp parses the -ramp-workers spec "lo:hi:step" into a staged
// concurrency ladder.
func parseRamp(s string) (lo, hi, step int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("-ramp-workers wants lo:hi:step, got %q", s)
	}
	var vals [3]int
	for i, p := range parts {
		if vals[i], err = strconv.Atoi(p); err != nil {
			return 0, 0, 0, fmt.Errorf("-ramp-workers wants integer lo:hi:step, got %q", s)
		}
	}
	lo, hi, step = vals[0], vals[1], vals[2]
	if lo < 1 || hi < lo || step < 1 {
		return 0, 0, 0, fmt.Errorf("-ramp-workers wants 1 <= lo <= hi and step >= 1, got %q", s)
	}
	return lo, hi, step, nil
}
