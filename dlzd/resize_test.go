package dlzd

import (
	"net/http"
	"strings"
	"testing"
)

// TestResizeEndpointRoundTrip drives POST /v1/{tenant}/resize through grow,
// clamp and shrink, and checks the audit surfaces agree: ResizeResponse
// reports the clamped count and epoch, /stats and /metrics mirror it,
// elements enqueued before the resizes all drain afterwards, and the
// counter's shard count tracks the queue's.
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
	body := c.metrics()
	for _, want := range []string{
		"\ndlzd_queue_current_m 2\n",
		"\ndlzd_resize_epochs_total 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
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
