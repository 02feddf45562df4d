//go:build dlzfail

package dlzd

import (
	"net/http"
	"strconv"
	"testing"

	"repro/internal/fail"
	"repro/internal/wal"
)

// TestWALAppendRefusedPoisonsAck pins the journal-before-ack contract under
// an injected append failure, for each mutating op: the request answers 500
// (never a false ack), the failure is counted, the daemon keeps serving, and
// a recovery sees only what was journaled — the refused request applied in
// the live server (applied-but-unacknowledged) but is absent after reboot,
// which is exactly the documented semantics of a 500: not durable, may or
// may not have applied. An acked enqueue sent after the refusal must survive
// the reboot: a refused append leaves no gap that loses the records behind it.
func TestWALAppendRefusedPoisonsAck(t *testing.T) {
	for _, tc := range []struct {
		op      string
		refused any
		// live reads the ledger the refused op moves; wantLive is its value
		// and wantLen the live queue's length once every session is closed.
		live              func(tw *tenant) uint64
		wantLive, wantLen uint64
	}{{
		op:       "enqueue-batch",
		refused:  EnqueueBatchRequest{Session: "s", Items: wireItems(3, 4, 5)},
		live:     func(tw *tenant) uint64 { return tw.opsEnqueued.Load() },
		wantLive: 4 + 3 + 1,
		wantLen:  4 + 3 + 1,
	}, {
		op:       "delete-min-up-to",
		refused:  DeleteMinRequest{Session: "s", Max: 2},
		live:     func(tw *tenant) uint64 { return tw.opsDequeued.Load() },
		wantLive: 2,
		wantLen:  4 - 2 + 1,
	}, {
		op:       "counter/add-batch",
		refused:  CounterAddRequest{Session: "s", Deltas: []uint64{3, 4, 5}},
		live:     func(tw *tenant) uint64 { return tw.counterDeltaSum.Load() },
		wantLive: 1 + 2 + 3 + 4 + 5,
		wantLen:  4 + 1,
	}} {
		t.Run(tc.op, func(t *testing.T) {
			fail.Reset()
			defer fail.Reset()
			dir := t.TempDir()
			s, c := newDurableClient(t, dir, Config{Queues: 2, Batch: 4, Seed: 7})
			// Four acked items and two acked deltas, published by a close so
			// the refused drain finds them in the shared structure.
			if code := c.post("/v1/w/enqueue-batch", EnqueueBatchRequest{Session: "p", Items: wireItems(1, 2, 3, 4)}, nil); code != http.StatusOK {
				t.Fatalf("pre-fault enqueue = %d", code)
			}
			if code := c.post("/v1/w/counter/add-batch", CounterAddRequest{Session: "p", Deltas: []uint64{1, 2}}, nil); code != http.StatusOK {
				t.Fatalf("pre-fault counter add = %d", code)
			}
			if code := c.post("/v1/w/session/close", SessionCloseRequest{Session: "p"}, nil); code != http.StatusOK {
				t.Fatalf("pre-fault close = %d", code)
			}

			fail.Arm(fail.SiteWALAppend, fail.Policy{Kind: fail.KindError, Count: 1})
			if code := c.post("/v1/w/"+tc.op, tc.refused, nil); code != http.StatusInternalServerError {
				t.Fatalf("%s with refused append = %d, want 500", tc.op, code)
			}
			if got := fail.Fires(fail.SiteWALAppend); got != 1 {
				t.Fatalf("append failpoint fired %d times, want 1", got)
			}
			fail.Reset()

			// The daemon keeps serving, the next mutation is acked, and the
			// failure is visible on /metrics.
			if code := c.post("/v1/w/enqueue-batch", EnqueueBatchRequest{Session: "a", Items: wireItems(6)}, nil); code != http.StatusOK {
				t.Fatalf("post-fault enqueue = %d", code)
			}
			for _, session := range []string{"s", "a"} {
				if code := c.post("/v1/w/session/close", SessionCloseRequest{Session: session}, nil); code != http.StatusOK {
					t.Fatalf("post-fault close %s = %d", session, code)
				}
			}
			errs, err := strconv.ParseUint(lineValue(t, c.metrics(), "dlzd_wal_append_errors_total"), 10, 64)
			if err != nil || errs != 1 {
				t.Errorf("dlzd_wal_append_errors_total = %d (%v), want 1", errs, err)
			}
			tw, _ := s.tenant([]byte("w"))
			if got := tc.live(tw); got != tc.wantLive {
				t.Errorf("live ledger = %d, want %d (the refused %s applied)", got, tc.wantLive, tc.op)
			}
			if got := uint64(tw.mq.Len()); got != tc.wantLen {
				t.Errorf("live queue = %d, want %d", got, tc.wantLen)
			}

			// Reboot: only the journaled (acked) operations survive — the
			// four pre-fault items, the two deltas and the post-fault item.
			s2 := New(Config{Queues: 2, Batch: 4, Seed: 9, Durability: &Durability{Dir: dir}})
			if _, err := s2.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer s2.Close()
			tw2, ok := s2.tenant([]byte("w"))
			if !ok {
				t.Fatal("tenant w missing after reboot")
			}
			if got := tw2.mq.Len(); got != 5 {
				t.Errorf("recovered queue = %d, want 5 (acked items only)", got)
			}
			if enq, deq := tw2.opsEnqueued.Load(), tw2.opsDequeued.Load(); enq != 5 || deq != 0 {
				t.Errorf("recovered OpsEnqueued = %d, OpsDequeued = %d, want 5 and 0", enq, deq)
			}
			if got := tw2.counterDeltaSum.Load(); got != 1+2 {
				t.Errorf("recovered CounterDeltaSum = %d, want 3", got)
			}
		})
	}
}

// TestWALFsyncDelayInjected arms the fsync delay site under the always
// policy: acks stall through the widened window but still land, and the
// journal stays intact — this is the site the chaos soak uses to widen the
// SIGKILL-mid-fsync race.
func TestWALFsyncDelayInjected(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	dir := t.TempDir()
	_, c := newDurableClient(t, dir, Config{Queues: 2, Batch: 4, Seed: 7,
		Durability: &Durability{Dir: dir, Fsync: wal.FsyncAlways}})

	fail.Arm(fail.SiteWALFsync, fail.Policy{Kind: fail.KindDelay, Delay: 0, Count: 8})
	for i := 0; i < 4; i++ {
		if code := c.post("/v1/f/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(uint64(i))}, nil); code != http.StatusOK {
			t.Fatalf("enqueue %d under fsync delay = %d", i, code)
		}
	}
	if fail.Fires(fail.SiteWALFsync) == 0 {
		t.Fatal("fsync failpoint never fired under FsyncAlways")
	}
	fail.Reset()

	states, _, err := wal.Replay(dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(states) != 1 || len(states[0].Items) != 4 {
		t.Fatalf("journal holds %+v, want 1 tenant with 4 items", states)
	}
}
