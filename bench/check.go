package main

import (
	"fmt"

	"repro/dlzd"
)

// ledger is the client's own account of what the daemon acknowledged, per
// tenant: elements in, elements out, counter weight added.
type ledger struct {
	enqueued [numTenants]int64
	dequeued [numTenants]int64
	deltaSum [numTenants]uint64
}

func (l *ledger) add(o *ledger) {
	for t := 0; t < numTenants; t++ {
		l.enqueued[t] += o.enqueued[t]
		l.dequeued[t] += o.dequeued[t]
		l.deltaSum[t] += o.deltaSum[t]
	}
}

// checker collects check violations. Each counts as failed operations, is
// kept (the first few verbatim) for the report, and makes the command exit
// non-zero.
type checker struct {
	failed   int64
	problems []string
}

const maxProblemsKept = 10

// failf records a violation worth n failed operations.
func (c *checker) failf(n int64, format string, args ...any) {
	c.failed += n
	if len(c.problems) < maxProblemsKept {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// checkDequeued verifies no-phantom and no-duplicate delivery: every value a
// delete-min-up-to returned for tenant t was enqueued to t by the stream, and
// no value was returned twice.
func (c *checker) checkDequeued(s *stream, dequeued [numTenants][]uint64) {
	seen := make([]bool, len(s.owner))
	for t, vals := range dequeued {
		for _, v := range vals {
			switch {
			case v >= uint64(len(s.owner)) || s.owner[v] != uint8(t)+1:
				c.failf(1, "tenant %s returned value %d, which was never enqueued to it", tenantName(t), v)
			case seen[v]:
				c.failf(1, "tenant %s returned value %d twice", tenantName(t), v)
			default:
				seen[v] = true
			}
		}
	}
}

// checkStats verifies conservation against the daemon's own audit surface:
// for each tenant, published length plus what live leases still buffer or
// have prefetched equals elements acked in minus elements delivered, and the
// counter's exact value plus buffered weight equals the delta sum. After a
// recovery no lease is live, so the same equation is an equality on the
// recovered queue length.
func (c *checker) checkStats(when string, l *ledger, stats []dlzd.StatsResponse) {
	for t, st := range stats {
		held := int64(st.QueueLen) + int64(st.BufferedEnqueues) + int64(st.PrefetchedDequeues)
		if want := l.enqueued[t] - l.dequeued[t]; held != want {
			c.failf(abs64(held-want), "%s: tenant %s holds %d elements, the client ledger says %d", when, tenantName(t), held, want)
		}
		if got := st.CounterExact + st.BufferedCounterWeight; got != l.deltaSum[t] {
			c.failf(1, "%s: tenant %s counter is %d, the client ledger says %d", when, tenantName(t), got, l.deltaSum[t])
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
