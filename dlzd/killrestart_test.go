package dlzd

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/wal"
)

// Kill-restart soak knobs. CI runs the fixed default seed plus a randomized
// one; any failing seed reproduces its kill schedule exactly.
var (
	killCycles = flag.Int("killcycles", 4, "SIGKILL cycles for TestKillRestartSoak")
	killSeed   = flag.Int64("killseed", 1, "kill-timing seed for TestKillRestartSoak")
)

// lockedBuffer is a subprocess's output sink the test may read while os/exec
// is still copying into it: the final boot's log is inspected with the daemon
// running, and a failure dumps every log mid-flight.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestKillRestartSoak is the chaos proof for DESIGN.md §12: a real dlzd
// process journaling under live dlzd-load traffic is SIGKILLed mid-flight
// -killcycles times — linked with a 5ms fsync interval and 256 KiB segments,
// so kills land inside or around fsync windows and segment rolls — and
// restarted each time. The load client tracks acked vs maybe-applied ledgers
// and must print RECOVERY PASS: zero acked-op loss, unacked overshoot bounded
// by in-flight requests. A final SIGTERM restart must replay zero records
// (the shutdown snapshot covered everything), and two offline replays of the
// surviving journal must be identical.
func TestKillRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess soak skipped in -short")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"-ldflags", "-X repro/dlzd.walFsyncInterval=5ms -X repro/dlzd.walSegmentBytes="+strconv.Itoa(256<<10),
		"./cmd/dlzd", "./cmd/dlzd-load")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	walDir := t.TempDir()

	var daemonLogs []*lockedBuffer
	startDaemon := func() *exec.Cmd {
		log := &lockedBuffer{}
		daemonLogs = append(daemonLogs, log)
		cmd := exec.Command(bin+"/dlzd",
			"-addr", addr,
			"-wal-dir", walDir,
			"-wal-fsync", "interval",
			"-wal-snapshot-bytes", strconv.Itoa(1<<20),
			"-queues", "8")
		cmd.Stdout = log
		cmd.Stderr = log
		if err := cmd.Start(); err != nil {
			t.Fatalf("start daemon: %v", err)
		}
		return cmd
	}
	dumpLogs := func() {
		for i, l := range daemonLogs {
			t.Logf("daemon incarnation %d:\n%s", i, l.String())
		}
	}
	waitReady := func(timeout time.Duration) bool {
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			resp, err := http.Get("http://" + addr + "/readyz")
			if err == nil {
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusOK {
					return true
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
		return false
	}

	daemon := startDaemon()
	if !waitReady(10 * time.Second) {
		dumpLogs()
		t.Fatal("daemon never became ready")
	}

	loadOut := &lockedBuffer{}
	load := exec.Command(bin+"/dlzd-load",
		"-addr", "http://"+addr,
		"-ops", strconv.Itoa(*killCycles*8000),
		"-workers", "4",
		"-tenants", "4",
		"-seed", strconv.FormatInt(*killSeed, 10))
	load.Stdout = loadOut
	load.Stderr = loadOut
	if err := load.Start(); err != nil {
		t.Fatalf("start load: %v", err)
	}
	loadDone := make(chan error, 1)
	go func() { loadDone <- load.Wait() }()

	t.Logf("kill schedule seed %d, %d cycles", *killSeed, *killCycles)
	r := rand.New(rand.NewSource(*killSeed))
	kills := 0
	for i := 0; i < *killCycles; i++ {
		select {
		case <-loadDone:
			// The op budget drained before the schedule finished; the cycles
			// that did run still verified. Resignal for the join below.
			loadDone <- nil
			i = *killCycles
			continue
		case <-time.After(time.Duration(250+r.Intn(400)) * time.Millisecond):
		}
		if err := daemon.Process.Kill(); err != nil {
			t.Fatalf("SIGKILL cycle %d: %v", i, err)
		}
		_ = daemon.Wait()
		kills++
		daemon = startDaemon()
	}

	select {
	case err := <-loadDone:
		if err != nil {
			dumpLogs()
			t.Fatalf("load client failed: %v\n%s", err, loadOut.String())
		}
	case <-time.After(5 * time.Minute):
		dumpLogs()
		t.Fatalf("load client hung\n%s", loadOut.String())
	}
	out := loadOut.String()
	if !bytes.Contains([]byte(out), []byte("RECOVERY PASS")) {
		dumpLogs()
		t.Fatalf("no RECOVERY PASS verdict after %d kills:\n%s", kills, out)
	}
	t.Logf("%d SIGKILL cycles survived; load verdict:\n%s", kills, out)
	// Every boot opens one segment, so more segments than boots means some
	// incarnation rolled one by size, as the linked segment size intends.
	segs, err := filepath.Glob(filepath.Join(walDir, "*.seg"))
	if err != nil || len(segs) <= len(daemonLogs) {
		t.Errorf("%d journal segments after %d boots (%v): no incarnation rolled a segment", len(segs), len(daemonLogs), err)
	}

	// Clean shutdown: SIGTERM writes a final snapshot, so the next boot must
	// replay exactly zero journal records.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := daemon.Wait(); err != nil {
		dumpLogs()
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
	daemon = startDaemon()
	if !waitReady(10 * time.Second) {
		dumpLogs()
		t.Fatal("daemon not ready after clean restart")
	}
	finalLog := daemonLogs[len(daemonLogs)-1].String()
	m := regexp.MustCompile(`\((\d+) records`).FindStringSubmatch(finalLog)
	if m == nil {
		t.Fatalf("no recovery line in clean-restart log:\n%s", finalLog)
	}
	if m[1] != "0" {
		t.Errorf("clean restart replayed %s records, want 0:\n%s", m[1], finalLog)
	}
	_ = daemon.Process.Signal(syscall.SIGTERM)
	_ = daemon.Wait()

	// Determinism: two offline replays of the surviving journal agree.
	one, _, err := wal.Replay(walDir)
	if err != nil {
		t.Fatalf("offline replay: %v", err)
	}
	two, _, err := wal.Replay(walDir)
	if err != nil {
		t.Fatalf("second offline replay: %v", err)
	}
	if !reflect.DeepEqual(one, two) {
		t.Fatal("two replays of the post-soak journal diverged")
	}
	var total int
	for _, st := range one {
		total += len(st.Items)
	}
	fmt.Printf("kill-restart soak: %d kills, %d tenants, %d surviving elements\n", kills, len(one), total)
}
