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
// an injected append failure: the request answers 500 (never a false ack),
// the failure is counted, the daemon keeps serving, and a recovery sees only
// what was journaled — the refused request's items exist in the live server
// (applied-but-unacknowledged) but are absent after reboot, which is exactly
// the documented semantics of a 500: not durable, may or may not have
// applied.
func TestWALAppendRefusedPoisonsAck(t *testing.T) {
	fail.Reset()
	defer fail.Reset()
	dir := t.TempDir()
	s, c := newDurableClient(t, dir, Config{Queues: 2, Batch: 4, Seed: 7})

	if code := c.post("/v1/w/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(1, 2)}, nil); code != http.StatusOK {
		t.Fatalf("pre-fault enqueue = %d", code)
	}

	fail.Arm(fail.SiteWALAppend, fail.Policy{Kind: fail.KindError, Count: 1})
	if code := c.post("/v1/w/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(3, 4, 5)}, nil); code != http.StatusInternalServerError {
		t.Fatalf("enqueue with refused append = %d, want 500", code)
	}
	if got := fail.Fires(fail.SiteWALAppend); got != 1 {
		t.Fatalf("append failpoint fired %d times, want 1", got)
	}
	fail.Reset()

	// The daemon keeps serving and the failure is visible on /metrics.
	if code := c.post("/v1/w/enqueue-batch", EnqueueBatchRequest{Session: "s", Items: wireItems(6)}, nil); code != http.StatusOK {
		t.Fatalf("post-fault enqueue = %d", code)
	}
	errs, err := strconv.ParseUint(lineValue(t, c.metrics(), "dlzd_wal_append_errors_total"), 10, 64)
	if err != nil || errs != 1 {
		t.Errorf("dlzd_wal_append_errors_total = %d (%v), want 1", errs, err)
	}
	// Live state holds all 6 items (the refused batch DID apply in memory);
	// close the session so the lease buffer publishes before counting.
	if code := c.post("/v1/w/session/close", SessionCloseRequest{Session: "s"}, nil); code != http.StatusOK {
		t.Fatalf("close = %d", code)
	}
	tw, _ := s.tenant([]byte("w"))
	if got := tw.mq.Len(); got != 6 {
		t.Errorf("live queue = %d, want 6", got)
	}

	// Reboot: only the journaled (acked) operations survive.
	s2 := New(Config{Queues: 2, Batch: 4, Seed: 9, Durability: &Durability{Dir: dir}})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer s2.Close()
	tw2, ok := s2.tenant([]byte("w"))
	if !ok {
		t.Fatal("tenant w missing after reboot")
	}
	if got := tw2.mq.Len(); got != 3 {
		t.Errorf("recovered queue = %d, want 3 (acked items only)", got)
	}
	if got := tw2.opsEnqueued.Load(); got != 3 {
		t.Errorf("recovered OpsEnqueued = %d, want 3", got)
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
