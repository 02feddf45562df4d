package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/dlz"
	"repro/internal/counters"
	"repro/internal/dlin"
	"repro/internal/quality"
	"repro/internal/rng"
)

// The structures' configuration, on every workload: the lib workloads build
// them so, and these are cmd/dlzd's flag defaults for m, d, s and k. Backing
// and affinity stay at the library's zero defaults.
const (
	structM          = 64
	structChoices    = 2
	structStickiness = 16
	structBatch      = 8
)

const (
	libPrefill = 1 << 20 // the standing queue content of the paper's Section 7 loop
	// blockOps is the lib workloads' unit of timing: one clock read per 1024
	// operations costs them under a hundredth, and a block is what req_p50_us
	// and req_p99_us call a request there.
	blockOps  = 1024
	prioTable = 1 << 16 // priorities drawn per caller before timing, then cycled
	readEvery = 64      // lib-counter reads once per this many operations
)

func newQueue(seed uint64) *dlz.MultiQueue {
	return dlz.NewMultiQueue(dlz.MultiQueueConfig{
		Topology:   dlz.Topology{InitialM: structM},
		Choices:    structChoices,
		Stickiness: structStickiness,
		Batch:      structBatch,
		Seed:       seed,
	})
}

func newCounter() *dlz.MultiCounter {
	return dlz.NewMultiCounterConfig(dlz.MultiCounterConfig{
		Topology:   dlz.Topology{InitialM: structM},
		Choices:    structChoices,
		Stickiness: structStickiness,
		Batch:      structBatch,
	})
}

// blockTimer times a caller's blocks: one clock read per block, each block's
// latency the time since the previous read, and, when tracing, a span per
// block.
type blockTimer struct {
	lat  []uint32
	prev time.Time
	rec  *recorder
	log  *spanLog
	name string
	id   uint64
}

func newBlockTimer(blocks int, rec *recorder, name string, caller int) *blockTimer {
	return &blockTimer{lat: make([]uint32, 0, blocks), rec: rec, log: rec.newLog(), name: name, id: uint64(caller) << 32}
}

func (b *blockTimer) start() { b.prev = time.Now() }

func (b *blockTimer) tick() {
	now := time.Now()
	b.lat = append(b.lat, uint32(now.Sub(b.prev)))
	if b.log != nil {
		b.log.spans = append(b.log.spans, span{Name: b.name, ID: b.id, Start: b.rec.since(b.prev), End: b.rec.since(now)})
		b.id++
	}
	b.prev = now
}

// runCallers runs body once per caller, all at once, and waits for them.
func runCallers(callers int, body func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c)
		}(c)
	}
	wg.Wait()
}

// tally is the order-free fingerprint of a multiset of values: conservation
// holds when what went in and what came out agree on all three.
type tally struct{ n, sum, xor uint64 }

func (t *tally) add(v uint64) { t.n++; t.sum += v; t.xor ^= v }

func (t *tally) merge(o tally) { t.n += o.n; t.sum += o.sum; t.xor ^= o.xor }

// queueLoad is lib-queue: callers goroutines, one MQHandle each on one
// MultiQueue, alternating EnqueuePriority and Dequeue on a standing prefill.
type queueLoad struct {
	seed    uint64
	q       *dlz.MultiQueue
	handles []*dlz.MQHandle
	prios   [][]uint64
	next    []uint64 // per caller: the next unique value, and the table cursor
	in, out []tally  // per caller, plus one slot for prefill and drain
}

// newQueueLoad generates the callers' priority tables from seed, builds the
// queue and prefills it.
func newQueueLoad(seed uint64, callers, prefill int) *queueLoad {
	l := &queueLoad{
		seed:    seed,
		q:       newQueue(seed),
		handles: make([]*dlz.MQHandle, callers),
		prios:   make([][]uint64, callers),
		next:    make([]uint64, callers),
		in:      make([]tally, callers+1),
		out:     make([]tally, callers+1),
	}
	r := rng.NewXoshiro256(seed)
	for c := range l.prios {
		l.prios[c] = make([]uint64, prioTable)
		for i := range l.prios[c] {
			l.prios[c][i] = r.Next() >> 16 // the top word orders the low 48 bits exactly
		}
		l.next[c] = uint64(c+1) << 40
	}
	h := l.q.NewHandle(seed + 1)
	for v := uint64(0); v < uint64(prefill); v++ {
		h.EnqueuePriority(r.Next()>>16, v)
		l.in[callers].add(v)
	}
	h.Close()
	return l
}

// run has every caller do blocks blocks of blockOps operations and returns
// the per-caller block latencies. A caller makes its handle in its own
// goroutine, on first use, as cmd/benchall's workers do: handles made back to
// back on one goroutine lie side by side in memory, and two callers then
// share cache lines that each writes on every operation.
func (l *queueLoad) run(blocks int, rec *recorder) [][]uint32 {
	lat := make([][]uint32, len(l.handles))
	runCallers(len(l.handles), func(c int) {
		if l.handles[c] == nil {
			l.handles[c] = l.q.NewHandle(l.seed + 2 + uint64(c))
		}
		h, prios, next := l.handles[c], l.prios[c], l.next[c]
		in, out := l.in[c], l.out[c]
		bt := newBlockTimer(blocks, rec, "core.mq.block", c)
		bt.start()
		for b := 0; b < blocks; b++ {
			for i := 0; i < blockOps/2; i++ {
				h.EnqueuePriority(prios[next%prioTable], next)
				in.add(next)
				next++
				if it, ok := h.Dequeue(); ok {
					out.add(it.Value)
				}
			}
			bt.tick()
		}
		l.next[c], l.in[c], l.out[c], lat[c] = next, in, out, bt.lat
	})
	return lat
}

// check drains the queue and verifies conservation: count, sum and xor of
// everything dequeued or drained equal those of everything enqueued.
func (l *queueLoad) check(ck *checker) {
	for _, h := range l.handles {
		h.Flush()
		h.ReturnPrefetched()
	}
	drain := &l.out[len(l.handles)]
	for it, ok := l.handles[0].Dequeue(); ok; it, ok = l.handles[0].Dequeue() {
		drain.add(it.Value)
	}
	var in, out tally
	for i := range l.in {
		in.merge(l.in[i])
		out.merge(l.out[i])
	}
	if in != out {
		d := int64(in.n) - int64(out.n)
		if d == 0 {
			d = 1
		}
		ck.failf(abs64(d), "lib-queue: enqueued %+v but dequeued and drained %+v", in, out)
	}
}

// counterLoad is lib-counter: callers goroutines, one Handle each on one
// MultiCounter, incrementing with a Read every readEvery-th operation.
type counterLoad struct {
	seed    uint64
	c       *dlz.MultiCounter
	handles []*dlz.Handle
	incs    []uint64
	sink    atomic.Uint64
}

func newCounterLoad(seed uint64, callers int) *counterLoad {
	return &counterLoad{seed: seed, c: newCounter(), handles: make([]*dlz.Handle, callers), incs: make([]uint64, callers)}
}

func (l *counterLoad) run(blocks int, rec *recorder) [][]uint32 {
	lat := make([][]uint32, len(l.handles))
	runCallers(len(l.handles), func(c int) {
		if l.handles[c] == nil {
			l.handles[c] = l.c.NewHandle(l.seed + 1 + uint64(c)) // in the caller's goroutine: see queueLoad.run
		}
		h := l.handles[c]
		var reads uint64
		bt := newBlockTimer(blocks, rec, "core.mc.block", c)
		bt.start()
		for b := 0; b < blocks; b++ {
			for i := 0; i < blockOps/readEvery; i++ {
				for j := 0; j < readEvery-1; j++ {
					h.Increment()
				}
				reads += h.Read()
			}
			bt.tick()
		}
		l.incs[c] += uint64(blocks) * (blockOps / readEvery) * (readEvery - 1)
		l.sink.Add(reads)
		lat[c] = bt.lat
	})
	return lat
}

// check verifies that after every handle flushed, the counter's exact value
// is the number of increments issued.
func (l *counterLoad) check(ck *checker) {
	var issued uint64
	for c, h := range l.handles {
		h.Flush()
		issued += l.incs[c]
	}
	if got := l.c.Exact(); got != issued {
		ck.failf(abs64(int64(got)-int64(issued)), "lib-counter: Exact() is %d after %d increments", got, issued)
	}
}

// faaRun is the exact baseline of Figure 1a: the same loop on one shared
// fetch-and-add word.
func faaRun(callers, blocks int) [][]uint32 {
	e := counters.NewExact()
	lat := make([][]uint32, callers)
	var sink atomic.Uint64
	runCallers(callers, func(c int) {
		var reads uint64
		bt := newBlockTimer(blocks, nil, "", c)
		bt.start()
		for b := 0; b < blocks; b++ {
			for i := 0; i < blockOps/readEvery; i++ {
				for j := 0; j < readEvery-1; j++ {
					e.Inc()
				}
				reads += e.Read()
			}
			bt.tick()
		}
		sink.Add(reads)
		lat[c] = bt.lat
	})
	return lat
}

// Sizes of the quality audits: large enough that the mean rank repeats
// within a hundredth across seeds.
const (
	auditBuffer  = 1 << 16
	auditDequeue = 1 << 20
	auditIncs    = 1 << 18
	auditSamples = 1 << 10
	auditRepeats = 256
)

// auditCeiling is the hard ceiling on rank_mean and dev_max. The theorems'
// m log m is for fresh choices on every operation; a handle that keeps a
// choice for s operations and moves k elements at a time relaxes both by
// about max(s, k), and at m = 64, s = 16, k = 8 the audits measure rank_mean
// near 820 and dev_max near 4200 against m log m = 384. The ceiling is twice
// the sticky scale: a guard against a broken sampler, not a tight bound.
// Drift inside it is what the metrics' regression bounds are for.
func auditCeiling() float64 {
	return 2 * structStickiness * dlin.Envelope(structM)
}

// audit is the relaxation side of the paper's trade, measured the way the
// paper measures it: on a fresh structure at the workloads' configuration,
// driven by one handle, so that it repeats exactly for a seed.
type audit struct {
	rankMean, rankP99 float64
	devMax, devMean   float64
}

// runAudit measures dequeue rank error and counter read deviation and checks
// both against auditCeiling. A single audit's maximum deviation moves by a
// fifth between seeds and in steps of 256, so dev_max is the interquartile
// mean of the maxima of auditRepeats independent audits, which holds to a
// fiftieth.
func runAudit(cfg config, ck *checker) audit {
	var a audit
	seed := cfg.seed << 20 // so that neighbouring seeds share no audit
	dequeues, repeats := int(auditDequeue*cfg.scale), uint64(auditRepeats*cfg.scale)
	if dequeues < auditBuffer {
		dequeues = auditBuffer
	}
	if repeats < 8 {
		repeats = 8
	}
	ranks := quality.MeasureDequeueRank(newQueue(seed).NewHandle(seed+1), auditBuffer, dequeues)
	a.rankMean, a.rankP99 = ranks.Mean(), ranks.Quantile(0.99)
	var maxes, means []float64
	for i := uint64(0); i < repeats; i++ {
		dev := quality.MeasureCounterDeviation(newCounter().NewHandle(seed+2+i), auditIncs, auditSamples, nil)
		maxes = append(maxes, float64(dev.MaxAbsError))
		means = append(means, dev.MeanAbsError)
	}
	a.devMax, a.devMean = interquartileMean(maxes), median(means)
	ceiling := auditCeiling()
	if ranks.N() != dequeues {
		ck.failf(1, "rank audit stopped after %d of %d dequeues", ranks.N(), dequeues)
	}
	if a.rankMean > ceiling {
		ck.failf(1, "rank_mean %.1f exceeds the ceiling %.0f", a.rankMean, ceiling)
	}
	if a.devMax > ceiling {
		ck.failf(1, "dev_max %.0f exceeds the ceiling %.0f", a.devMax, ceiling)
	}
	return a
}
