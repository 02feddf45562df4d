package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes, inside the checkout it runs
// from: the daemon binary, journals and journal copies.
const buildDir = ".bench_build"

// buildDaemon compiles cmd/dlzd from the checkout's source and returns the
// binary's path. After the first call it is a cache hit that only stats
// files, which is what a user rebuilding before a run pays too.
func buildDaemon() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "dlzd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dlzd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dlzd: %w\n%s", err, out)
	}
	return bin, nil
}

// scratchDir makes a fresh directory under buildDir for one run's journals.
func scratchDir() (string, error) {
	parent := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}

// daemon is one running cmd/dlzd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // 127.0.0.1:port
	log     bytes.Buffer
	spawned time.Time
}

// freeAddr asks the kernel for an unused loopback port. The daemon takes its
// address as a flag, so the port is released before the daemon binds it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawnDaemon starts the shipped binary with its default flags on addr, plus
// the journal flags when walDir is set: fsync on the interval flusher and
// automatic snapshots off, so that a later kill leaves a journal of exactly
// the acknowledged requests.
func spawnDaemon(bin, addr, walDir string) (*daemon, error) {
	args := []string{"-addr", addr}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir, "-wal-fsync", "interval", "-wal-snapshot-bytes", "-1")
	}
	d := &daemon{cmd: exec.Command(bin, args...), addr: addr}
	d.cmd.Stderr = &d.log
	// Should the benchmark die without reaching kill, the daemon dies with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.spawned = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	return d, nil
}

// waitFor polls path until it answers 200 and returns the time since the
// spawn. The poll is short against what it times: a boot is tens of
// milliseconds, a recovery hundreds.
func (d *daemon) waitFor(path string) (time.Duration, error) {
	deadline := d.spawned.Add(60 * time.Second)
	c := &caller{}
	defer c.hangUp()
	for time.Now().Before(deadline) {
		if status, err := (httpEndpoint{d.addr}).call(c, http.MethodGet, path, nil, 0); err == nil && status == http.StatusOK {
			return time.Since(d.spawned), nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("daemon did not answer %s within 60 s; its log:\n%s", path, d.log.String())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", pid)
}

// kill sends SIGKILL, the crash the journal is specified against, and waits
// for the process to be gone.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait() // the error is the kill itself
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// copyDir copies the regular files directly inside src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fsType names the filesystem holding path, from /proc/mounts: the longest
// mount point that prefixes it.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}
