package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask with room for 1024 CPUs, the size of
// glibc's cpu_set_t.
type cpuMask [16]uint64

func affinity(tid int) (cpuMask, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

// setAffinity confines every thread the process has to mask. A thread made
// later inherits the mask of the thread that makes it, and so does a process
// the benchmark starts.
func setAffinity(mask *cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			return err
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
		if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread ended after it was listed
			return fmt.Errorf("sched_setaffinity: %w", errno)
		}
	}
	return nil
}

// onOneCPU runs body with the benchmark, and every process it starts
// meanwhile, confined to one CPU, the lowest the benchmark may use, and
// reports which.
//
// The wire workloads run so because the box's CPUs are a shared host's: a
// wake-up that crosses from one to another costs tens of microseconds on a
// quiet host and twice that on a busy one, and a closed loop between two
// processes on two CPUs is nothing but such wake-ups. On one CPU a request is
// two context switches and no wake-up, the spread between runs of one commit
// is half, and what is left is the CPU time a request costs the daemon and
// the generator, which is what a change to the program moves. README.md,
// "Load shape", has the measurements.
func onOneCPU(body func(cpu int) error) error {
	all, err := affinity(0)
	if err != nil {
		return err
	}
	var one cpuMask
	cpu := -1
	for i, word := range all {
		if word != 0 {
			cpu = i*64 + bits.TrailingZeros64(word)
			one[i] = 1 << (cpu % 64)
			break
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity returned an empty mask")
	}
	if err := setAffinity(&one); err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(1) // one CPU runs one thread: more would only be switched between
	defer func() {
		runtime.GOMAXPROCS(procs)
		_ = setAffinity(&all) // the mask was valid a moment ago
	}()
	return body(cpu)
}
