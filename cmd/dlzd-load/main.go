// Command dlzd-load is the conservation verifier for a running dlzd daemon
// (DESIGN.md §12). It drives a Zipf-skewed multi-tenant workload: tenants
// are drawn from a Zipf distribution (hot tenants get most of the traffic,
// like real multi-tenant skew) and enqueue priorities from a second Zipf
// over a large key universe (hot keys contend on the same relaxed minima).
// Requests carry no session token: the daemon serves each one with a handle
// pair borrowed from the tenant's pool.
//
// Usage:
//
//	dlzd-load -addr http://localhost:8377 -workers 8 -ops 200000
//
// Every run keeps an acked ledger (operations the daemon answered 200 for,
// journaled before the ack when durability is on, so they must survive a
// kill) and a maybe ledger (requests whose response was lost: the daemon may
// or may not have applied them). It rides out daemon downtime by polling
// /readyz and then checks each tenant's stats against [acked, acked+maybe]:
// the daemon publishes every request's work before answering it, so nothing
// the stats miss is held anywhere.
// With no disruption that range is one value, so the check is exact
// conservation. It prints a RECOVERY PASS/FAIL verdict and exits 1 on FAIL,
// on a worker that gave up, and 2 on bad flags. An acked-but-lost operation is always a FAIL; the
// maybe slack is at most one in-flight request per worker. The ledgers start
// at zero, so the run must be the only writer to tenants load0, load1, ...
// and find them empty: a second run against the same daemon fails.
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
	"repro/internal/rng"
)

// The workload's fixed shape.
const (
	batch      = 8                    // max items per wire batch
	thetaT     = 0.9                  // Zipf θ of the tenant skew
	thetaP     = 0.8                  // Zipf θ of the priority skew
	prioSpace  = 1 << 20              // priority key universe
	maxRetries = 64                   // consecutive 429 rejections before a worker gives up
	readyWait  = 60 * time.Second     // how long the daemon may stay not ready
	noHintWait = 5 * time.Millisecond // sleep after a rejection without Retry-After
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
// or a restart from an in-flight overflow).
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

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: it parses args, drives the load, writes the
// verdict to stdout and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("dlzd-load", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "http://localhost:8377", "dlzd base URL")
		tenants = fs.Int("tenants", 4, "tenant namespaces to spread load over")
		workers = fs.Int("workers", 8, "concurrent client workers")
		ops     = fs.Int("ops", 100000, "total wire operations")
		seed    = fs.Uint64("seed", 99, "workload seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *tenants < 1 || *workers < 1 {
		fmt.Fprintln(os.Stderr, "dlzd-load: -tenants and -workers must be >= 1")
		return 2
	}

	var (
		wg        sync.WaitGroup
		opCount   atomic.Int64
		rejected  atomic.Int64
		sheds     atomic.Int64 // rejections that were adaptive load sheds
		gaveUp    atomic.Int64 // workers that stopped before their op budget
		enqueued  = make([]atomic.Int64, *tenants)
		dequeued  = make([]atomic.Int64, *tenants)
		deltaSums = make([]atomic.Uint64, *tenants)
		// Maybe ledgers: upper bounds on what a request with a lost response
		// could have applied. A lost delete-min is bounded by its requested
		// max — the response carrying the real count never arrived.
		maybeEnq    = make([]atomic.Int64, *tenants)
		maybeDeq    = make([]atomic.Int64, *tenants)
		maybeDeltas = make([]atomic.Uint64, *tenants)
		disruptions atomic.Int64 // transport errors and restarts ridden out
	)
	client := newClient(*workers)

	worker := func(w, perWorker int) {
		defer wg.Done()
		r := rng.NewXoshiro256(*seed + uint64(w)*0x9E3779B97F4A7C15)
		tenantZipf := rng.NewZipf(r, *tenants, thetaT)
		prioZipf := rng.NewZipf(r, prioSpace, thetaP)
		consecutive := 0
		giveUp := func(format string, a ...any) {
			log.Printf("worker %d: "+format, append([]any{w}, a...)...)
			gaveUp.Add(1)
		}
	ops:
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
				n := 1 + r.Intn(batch)
				items := make([]dlzd.WireItem, n)
				for j := range items {
					p := uint64(prioZipf.Next())
					items[j] = dlzd.WireItem{Priority: p, Value: p}
				}
				mEnq = int64(n)
				code, retryAfter, errMsg, err = postJSON(client, base+"/enqueue-batch",
					dlzd.EnqueueBatchRequest{Items: items}, nil)
				if code == http.StatusOK {
					enqueued[tn].Add(int64(n))
				}
			case 2:
				max := 1 + r.Intn(batch)
				mDeq = int64(max)
				var deq dlzd.DeleteMinResponse
				code, retryAfter, errMsg, err = postJSON(client, base+"/delete-min-up-to",
					dlzd.DeleteMinRequest{Max: max}, &deq)
				if code == http.StatusOK {
					dequeued[tn].Add(int64(len(deq.Items)))
				}
			case 3:
				n := 1 + r.Intn(batch)
				deltas := make([]uint64, n)
				var sum uint64
				for j := range deltas {
					deltas[j] = 1 + r.Uint64n(100)
					sum += deltas[j]
				}
				mDelta = sum
				code, retryAfter, errMsg, err = postJSON(client, base+"/counter/add-batch",
					dlzd.CounterAddRequest{Deltas: deltas}, nil)
				if code == http.StatusOK {
					deltaSums[tn].Add(sum)
				}
			}
			if err != nil {
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
				if !waitReady(client, *addr) {
					giveUp("daemon not ready within %v after %v", readyWait, err)
					break ops
				}
				continue
			}
			switch {
			case code == http.StatusServiceUnavailable &&
				(strings.Contains(errMsg, "recovering") || strings.Contains(errMsg, "closed")):
				// The daemon is replaying after or shutting down for a
				// restart; the request was cleanly rejected (nothing
				// applied). Wait out the downtime instead of burning the
				// retry budget.
				disruptions.Add(1)
				if !waitReady(client, *addr) {
					giveUp("daemon not ready within %v", readyWait)
					break ops
				}
			case code == http.StatusTooManyRequests:
				// Backpressure: nothing was applied. Sleep the server's
				// hint, then press on with the next drawn operation. (A
				// deadline 503 may have applied a prefix, but the daemon
				// checks the deadline only every 64 items, past this
				// client's batches.)
				rejected.Add(1)
				if strings.Contains(errMsg, "shed") {
					sheds.Add(1)
				}
				consecutive++
				if consecutive > maxRetries {
					giveUp("giving up after %d consecutive rejections (last: %d %s)", consecutive, code, errMsg)
					break ops
				}
				if retryAfter == 0 {
					retryAfter = noHintWait
				}
				time.Sleep(retryAfter)
			case code != http.StatusOK:
				giveUp("unexpected status %d (%s)", code, errMsg)
				break ops
			default:
				consecutive = 0
				opCount.Add(1)
			}
		}
	}

	start := time.Now()
	wg.Add(*workers)
	for w := 0; w < *workers; w++ {
		go worker(w, *ops / *workers)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "dlzd-load: %d ops in %v (%.0f ops/s), %d rejections (%d shed)\n",
		opCount.Load(), elapsed.Round(time.Millisecond),
		float64(opCount.Load())/elapsed.Seconds(), rejected.Load(), sheds.Load())

	// The daemon may still be mid-restart from a kill landing after the last
	// worker op; settle before reading stats.
	if !waitReady(client, *addr) {
		fmt.Fprintln(stdout, "RECOVERY FAIL: daemon never became ready for verification")
		return 1
	}
	pass := gaveUp.Load() == 0
	for tn := 0; tn < *tenants; tn++ {
		var st dlzd.StatsResponse
		if err := getStats(client, *addr, tn, &st); err != nil {
			fmt.Fprintf(stdout, "RECOVERY FAIL: stats tenant load%d: %v\n", tn, err)
			return 1
		}
		queue := int64(st.QueueLen)
		// Acked enqueues were applied before their 200 and acked deletes
		// likewise: the floor is acked-in minus acked-out minus what a
		// lost-response delete could have removed, the ceiling adds what a
		// lost-response enqueue could have inserted.
		low := enqueued[tn].Load() - dequeued[tn].Load() - maybeDeq[tn].Load()
		if low < 0 {
			low = 0
		}
		high := enqueued[tn].Load() + maybeEnq[tn].Load() - dequeued[tn].Load()
		counter := st.CounterExact
		cLow, cHigh := deltaSums[tn].Load(), deltaSums[tn].Load()+maybeDeltas[tn].Load()
		switch {
		case queue < low:
			fmt.Fprintf(stdout, "RECOVERY FAIL tenant load%d: %d acked elements lost (queue=%d, floor=%d)\n",
				tn, low-queue, queue, low)
			pass = false
		case queue > high:
			fmt.Fprintf(stdout, "RECOVERY FAIL tenant load%d: %d unacked elements resurfaced beyond the maybe envelope (queue=%d, ceiling=%d)\n",
				tn, queue-high, queue, high)
			pass = false
		case counter < cLow || counter > cHigh:
			fmt.Fprintf(stdout, "RECOVERY FAIL tenant load%d: counter=%d outside acked envelope [%d, %d]\n",
				tn, counter, cLow, cHigh)
			pass = false
		default:
			fmt.Fprintf(stdout, "  tenant load%d: queue=%d in [%d, %d], counter=%d in [%d, %d] (maybe: +%d/-%d elems, +%d weight)\n",
				tn, queue, low, high, counter, cLow, cHigh,
				maybeEnq[tn].Load(), maybeDeq[tn].Load(), maybeDeltas[tn].Load())
		}
	}
	if !pass {
		fmt.Fprintf(stdout, "RECOVERY FAIL (%d workers gave up, %d disruptions ridden out)\n", gaveUp.Load(), disruptions.Load())
		return 1
	}
	fmt.Fprintf(stdout, "RECOVERY PASS: conservation holds across %d disruptions (acked-op loss = 0)\n", disruptions.Load())
	return 0
}

// waitReady polls GET /readyz until the daemon answers 200, sleeping between
// probes (connection errors and 503s both mean "not yet"). Returns false if
// readyWait expires first.
func waitReady(client *http.Client, addr string) bool {
	deadline := time.Now().Add(readyWait)
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
