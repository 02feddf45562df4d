package dlzd

import (
	"net/http"
	"strings"
	"testing"

	"repro/dlz"
)

// TestResizeEndpointRoundTrip drives POST /v1/{tenant}/resize through grow,
// clamp and shrink, and checks the audit surfaces agree: ResizeResponse
// reports the clamped count and epoch, /stats mirrors it, elements enqueued
// before the resizes all drain afterwards, and the counter's shard count
// tracks the queue's.
func TestResizeEndpointRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 4, MinQueues: 2, MaxQueues: 16, Seed: 9})

	items := wireItems(5, 3, 9, 1, 7, 2, 8, 4, 6, 10)
	var enq EnqueueBatchResponse
	if code := c.post("/v1/acme/enqueue-batch", EnqueueBatchRequest{Session: "s1", Items: items}, &enq); code != http.StatusOK {
		t.Fatalf("enqueue = %d", code)
	}

	var rz ResizeResponse
	if code := c.post("/v1/acme/resize", ResizeRequest{M: 16}, &rz); code != http.StatusOK {
		t.Fatalf("resize = %d", code)
	}
	if rz.M != 16 || rz.Epoch != 1 || rz.Resizes != 1 {
		t.Fatalf("grow response = %+v, want M 16, Epoch 1, Resizes 1", rz)
	}
	// Out-of-range requests clamp — a clamped resize is a success, and
	// landing on the current count burns no epoch.
	if code := c.post("/v1/acme/resize", ResizeRequest{M: 64}, &rz); code != http.StatusOK {
		t.Fatalf("clamped resize = %d", code)
	}
	if rz.M != 16 || rz.Resizes != 1 {
		t.Fatalf("clamp response = %+v, want M 16, Resizes still 1", rz)
	}
	if code := c.post("/v1/acme/resize", ResizeRequest{M: 1}, &rz); code != http.StatusOK {
		t.Fatalf("shrink = %d", code)
	}
	if rz.M != 2 || rz.Resizes != 2 {
		t.Fatalf("shrink response = %+v, want clamp to MinQueues 2, Resizes 2", rz)
	}

	var st StatsResponse
	if code := c.get("/v1/acme/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.CurrentM != 2 || st.Epoch != 2 || st.Resizes != 2 {
		t.Fatalf("stats elasticity = m %d epoch %d resizes %d, want 2/2/2", st.CurrentM, st.Epoch, st.Resizes)
	}
	if st.QueueLen != len(items) {
		t.Fatalf("QueueLen = %d after resizes, want %d — the drain-and-donate hop lost elements", st.QueueLen, len(items))
	}

	// Every element admitted before the resizes drains after them.
	var deq DeleteMinResponse
	got := 0
	for {
		if code := c.post("/v1/acme/delete-min-up-to", DeleteMinRequest{Session: "s1", Max: 16}, &deq); code != http.StatusOK {
			t.Fatalf("delete-min = %d", code)
		}
		if len(deq.Items) == 0 {
			break
		}
		got += len(deq.Items)
	}
	if got != len(items) {
		t.Fatalf("drained %d elements across resize epochs, want %d", got, len(items))
	}
}

// TestResizeEndpointValidation rejects non-positive targets and leaves a
// fixed-topology daemon (no Min/MaxQueues) pinned.
func TestResizeEndpointValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Queues: 4, Seed: 9})
	var rz ResizeResponse
	if code := c.post("/v1/acme/resize", ResizeRequest{M: 0}, &rz); code != http.StatusBadRequest {
		t.Fatalf("resize m=0 = %d, want 400", code)
	}
	if code := c.post("/v1/acme/resize", ResizeRequest{M: 32}, &rz); code != http.StatusOK {
		t.Fatalf("fixed-topology resize = %d", code)
	}
	if rz.M != 4 || rz.Resizes != 0 {
		t.Fatalf("fixed-topology response = %+v, want pinned M 4, Resizes 0", rz)
	}
}

// TestAutoScaleTickShrinksIdleTenants pins the janitor-driven half of the
// elastic API: with Config.AutoScale set, idle tenants (zero contention
// delta between ticks) walk down to MinQueues, each step visible through
// /stats and the /metrics elasticity surfaces.
func TestAutoScaleTickShrinksIdleTenants(t *testing.T) {
	s, c := newTestServer(t, Config{
		Queues: 8, MinQueues: 2, MaxQueues: 32, Seed: 11,
		AutoScale: &dlz.AutoScale{Dwell: 1},
	})

	// Touch two tenants into existence with a little traffic.
	for _, tn := range []string{"acme", "globex"} {
		var enq EnqueueBatchResponse
		if code := c.post("/v1/"+tn+"/enqueue-batch", EnqueueBatchRequest{Session: "s1", Items: wireItems(3, 1, 2)}, &enq); code != http.StatusOK {
			t.Fatalf("enqueue %s = %d", tn, code)
		}
	}

	resized := 0
	for i := 0; i < 12; i++ {
		resized += s.AutoScaleTick()
	}
	if resized < 4 {
		t.Fatalf("idle ticks resized %d tenant-steps, want >= 4 (two tenants, 8 -> 4 -> 2)", resized)
	}
	for _, tn := range []string{"acme", "globex"} {
		var st StatsResponse
		if code := c.get("/v1/"+tn+"/stats", &st); code != http.StatusOK {
			t.Fatalf("stats %s = %d", tn, code)
		}
		if st.CurrentM != 2 {
			t.Fatalf("%s CurrentM = %d after idle ticks, want MinQueues 2", tn, st.CurrentM)
		}
		if st.Resizes < 2 {
			t.Fatalf("%s Resizes = %d, want >= 2", tn, st.Resizes)
		}
		if st.QueueLen != 3 {
			t.Fatalf("%s QueueLen = %d after autoscale shrink, want 3", tn, st.QueueLen)
		}
	}

	body := c.metrics()
	for _, want := range []string{
		"dlzd_queue_current_m",
		"dlzd_resize_epochs_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}
