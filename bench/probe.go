package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
)

// The speed probe. The box the benchmark runs on is a few CPUs of a shared
// host, and what the host's other guests do changes its speed by a third for
// seconds or for minutes at a time: ten runs of one commit then spread by a
// fifth of their median, more than any bound the benchmark may fix. So the
// wire workloads measure the box while they measure the daemon. Beside the
// daemon's connection every caller keeps one to the probe server, a net/http
// server inside the benchmark whose handler reads the request and answers
// with a constant, and after every probeEvery-th request sends it the bytes
// the daemon was just sent. That round trip runs the same kernel path, the
// same system calls and the same Go runtime as a request to the daemon, on
// the same CPU at the same moment, and nothing of this repository's code, so
// it slows down when the box does and never when the daemon does.
//
// A wire workload's ops_per_s and req_p50_us are reported at the probe's
// nominal time: the segment's rate multiplied by its mean probe time over
// the nominal mean, its median latency divided by its median probe time over
// the nominal median. On a quiet box the factors are 1. The raw figures and
// the probe's own time are printed beside them (ops_per_s_raw,
// req_p50_us_raw, probe_us). README.md, "Load shape", has what this buys.
const (
	probeEvery = 8
	// The probe's round trip on the box the benchmark was defined on when
	// its host is quiet: the mean, which a rate goes by, and the median.
	probeNominalMeanNs   = 26e3
	probeNominalMedianNs = 21e3
)

// probeSpacing is the number of requests between probes in a drive of n: as
// probeEvery, but small enough that every segment of a short drive gets one.
func probeSpacing(n int) int {
	return max(1, min(probeEvery, n/segments))
}

// prober is one caller's connection to the probe server and the probe times
// of its current drive, in nanoseconds.
type prober struct {
	ep httpEndpoint
	c  caller
	ns []uint32
}

// roundTrip sends request, a whole HTTP request as the daemon was sent it,
// to the probe server and reads the answer.
func (p *prober) roundTrip(request []byte) error {
	if err := p.ep.dial(&p.c); err != nil {
		return err
	}
	p.c.out = request
	status, err := p.ep.exchange(&p.c)
	if err != nil {
		p.c.hangUp()
		return fmt.Errorf("probe: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("probe answered %d", status)
	}
	return nil
}

// probeServer is the null server the probes are sent to.
type probeServer struct {
	ep     httpEndpoint
	hs     *http.Server
	served chan struct{}
}

func startProbeServer() (*probeServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	answer := []byte(`{"enqueued":8}` + "\n") // the size of the daemon's commonest answer
	p := &probeServer{ep: httpEndpoint{ln.Addr().String()}, served: make(chan struct{})}
	p.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(answer)
	})}
	go func() {
		defer close(p.served)
		_ = p.hs.Serve(ln) // always ErrServerClosed, from stop
	}()
	return p, nil
}

func (p *probeServer) stop() {
	p.hs.Close()
	<-p.served
}

// attach gives every caller a connection-to-be to the probe server.
func (p *probeServer) attach(cs []*caller) {
	for _, c := range cs {
		c.probe = &prober{ep: p.ep}
	}
}

// probeTimes returns every caller's probe times of its last drive.
func probeTimes(cs []*caller) [][]uint32 {
	ns := make([][]uint32, len(cs))
	for i, c := range cs {
		ns[i] = c.probe.ns
	}
	return ns
}

// wireMetrics fills the request metrics of an untraced wire run: raw as
// requestMetrics gives them, and at the probe's nominal time, segment by
// segment. Probes are evenly spaced in a drive, so cutting a caller's probes
// into segments cuts them where its requests are cut.
func (r *result) wireMetrics(lat, probes [][]uint32) {
	r.requestMetrics(lat, wireBatch)
	r.Metrics["ops_per_s_raw"], r.Metrics["req_p50_us_raw"] = r.Metrics["ops_per_s"], r.Metrics["req_p50_us"]
	rates, p50s := segmentRates(lat, wireBatch), segmentQuantiles(lat, nil, 0.5)[0]
	var means []float64
	for k := range rates {
		var pool []uint32
		for _, ns := range probes {
			lo, hi := segmentBounds(len(ns), k)
			pool = append(pool, ns[lo:hi]...)
		}
		slices.Sort(pool)
		var sum float64
		for _, ns := range pool {
			sum += float64(ns)
		}
		mean := sum / float64(len(pool))
		rates[k] *= mean / probeNominalMeanNs
		p50s[k] /= quantileU32(pool, 0.5) / probeNominalMedianNs
		means = append(means, mean/1e3)
	}
	r.Metrics["ops_per_s"] = summarize("1/s", rates...)
	r.Metrics["req_p50_us"] = summarize("us", p50s...)
	r.Metrics["probe_us"] = summarize("us", means...)
}
