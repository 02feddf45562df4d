package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/dlzd"
)

// startDaemon serves a recovered in-memory dlzd on a loopback port and
// returns its base URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	srv := dlzd.New(dlzd.Config{Stickiness: 16, Batch: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		srv.Close()
		<-served
	})
	return "http://" + ln.Addr().String()
}

func runLoad(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out)
	return code, out.String()
}

func TestRunCleanLoadPasses(t *testing.T) {
	addr := startDaemon(t)
	code, out := runLoad(t, "-addr", addr, "-ops", "2000", "-workers", "2", "-tenants", "2")
	if code != 0 || !strings.Contains(out, "RECOVERY PASS") {
		t.Fatalf("clean run: exit %d, want 0 and RECOVERY PASS:\n%s", code, out)
	}
}

// TestRunFailsOnForeignElement: one element enqueued into load0 behind the
// client's back sits above the ledger's ceiling, so the run must fail and
// name the tenant.
func TestRunFailsOnForeignElement(t *testing.T) {
	addr := startDaemon(t)
	for _, step := range []struct{ path, body string }{
		{"/v1/load0/enqueue-batch", `{"session":"intruder","items":[{"priority":1,"value":1}]}`},
		{"/v1/load0/session/close", `{"session":"intruder"}`},
	} {
		resp, err := http.Post(addr+step.path, "application/json", strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", step.path, resp.StatusCode)
		}
	}
	code, out := runLoad(t, "-addr", addr, "-ops", "2000", "-workers", "2", "-tenants", "2")
	if code != 1 || !strings.Contains(out, "RECOVERY FAIL tenant load0") {
		t.Fatalf("run over a foreign element: exit %d, want 1 and a FAIL naming load0:\n%s", code, out)
	}
}

func TestRunRemovedFlagExits2(t *testing.T) {
	if code, out := runLoad(t, "-expect-restart"); code != 2 {
		t.Fatalf("-expect-restart: exit %d, want 2:\n%s", code, out)
	}
}
