package core

import (
	"fmt"
	"math/rand"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cpq"
	"repro/internal/pad"
	"repro/internal/rng"
)

// refHandle is the counter handle written the obvious way — an operation
// counter, a weight sum, and a publish that asks the sampler for its
// candidates and takes the argmin — the model TestHandleMatchesReference
// holds Handle's countdown to.
type refHandle struct {
	c      *MultiCounter
	r      *rng.Xoshiro256
	smp    Sampler
	ops    int
	weight uint64
	closed bool
}

func newRefHandle(c *MultiCounter, seed uint64) *refHandle {
	return &refHandle{c: c, r: rng.NewXoshiro256(seed), smp: NewSampler(len(c.cells), c.d, c.stick)}
}

func (h *refHandle) add(delta uint64) {
	if h.closed {
		panic("core: operation on closed Handle")
	}
	h.ops++
	h.weight += delta
	if h.ops >= h.c.batch {
		h.flush()
	}
}

func (h *refHandle) flush() {
	if h.ops == 0 {
		return
	}
	cand := h.smp.Candidates(h.r, h.ops)
	best := cand[0]
	for _, i := range cand[1:] {
		if h.c.cells[i].Load() < h.c.cells[best].Load() {
			best = i
		}
	}
	h.smp.Charge(h.ops)
	h.c.cells[best].Add(h.weight)
	h.ops, h.weight = 0, 0
}

func (h *refHandle) close() {
	if !h.closed {
		h.flush()
		h.closed = true
	}
}

// nextDraw is what r would return next, without advancing it.
func nextDraw(r *rng.Xoshiro256) uint64 {
	cp := *r
	return cp.Next()
}

// TestHandleMatchesReference drives Handle and refHandle, each on its own
// counter of one random configuration, through one random interleaving of
// Add, Increment, Read, Flush and a final Close. After every step the
// two must agree on every cell, the buffer, Exact and the generator's state:
// the same draws in the same order, the same shard for every publish.
func TestHandleMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		cfg := MultiCounterConfig{
			Topology:   Topology{InitialM: 1 + rnd.Intn(48)},
			Choices:    1 + rnd.Intn(3),
			Stickiness: []int{1, 8, 16}[rnd.Intn(3)],
			Batch:      []int{1, 5, 8}[rnd.Intn(3)],
		}
		seed := rnd.Uint64()
		c, rc := NewMultiCounterConfig(cfg), NewMultiCounterConfig(cfg)
		h, ref := c.NewHandle(seed), newRefHandle(rc, seed)
		agree := func(step int, op string) {
			t.Helper()
			if len(c.cells) != len(rc.cells) || c.Exact() != rc.Exact() {
				t.Fatalf("trial %d %+v step %d %s: m %d exact %d, reference m %d exact %d",
					trial, cfg, step, op, len(c.cells), c.Exact(), len(rc.cells), rc.Exact())
			}
			got, want := make([]uint64, len(c.cells)), make([]uint64, len(rc.cells))
			c.Snapshot(got)
			rc.Snapshot(want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d %+v step %d %s: cell %d is %d, reference %d", trial, cfg, step, op, i, got[i], want[i])
				}
			}
			if h.Buffered() != ref.ops || h.BufferedWeight() != ref.weight {
				t.Fatalf("trial %d %+v step %d %s: buffered %d ops weight %d, reference %d ops weight %d",
					trial, cfg, step, op, h.Buffered(), h.BufferedWeight(), ref.ops, ref.weight)
			}
			if nextDraw(&h.r) != nextDraw(ref.r) {
				t.Fatalf("trial %d %+v step %d %s: generators diverged", trial, cfg, step, op)
			}
		}
		steps := 50 + rnd.Intn(250)
		for step := 0; step < steps; step++ {
			op := "Add"
			switch p := rnd.Intn(100); {
			case p < 45:
				w := uint64(rnd.Intn(9)) // 0 too: a weightless update still fills a slot
				h.Add(w)
				ref.add(w)
			case p < 80:
				op = "Increment"
				h.Increment()
				ref.add(1)
			case p < 88:
				op = "Read"
				if got, want := h.Read(), rc.Read(ref.r); got != want {
					t.Fatalf("trial %d %+v step %d: Read %d, reference %d", trial, cfg, step, got, want)
				}
			default:
				op = "Flush"
				h.Flush()
				ref.flush()
			}
			agree(step, op)
		}
		h.Close()
		ref.close()
		agree(steps, "Close")
		if !h.closed || h.Buffered() != 0 || h.BufferedWeight() != 0 {
			t.Fatalf("trial %d %+v: closed %v with %d ops weight %d buffered", trial, cfg, h.closed, h.Buffered(), h.BufferedWeight())
		}
		for name, fn := range map[string]func(){"Add": func() { h.Add(3) }, "Increment": h.Increment} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("trial %d %+v: %s after Close did not panic", trial, cfg, name)
					}
				}()
				fn()
			}()
		}
		h.Close() // a second Close is a no-op
		agree(steps, "Close twice")
	}
}

// TestHandlesOwnTheirCacheLines pins both handle types to a whole number of
// cache lines and checks what that buys: handles minted back to back on one
// goroutine, the way a dlzd tenant mints a handle pair, never share a line —
// nor does any of their samplers' candidate arrays, with a handle or with
// each other.
func TestHandlesOwnTheirCacheLines(t *testing.T) {
	if s := unsafe.Sizeof(Handle{}); s%pad.CacheLine != 0 {
		t.Errorf("Handle is %d bytes, not a multiple of %d", s, pad.CacheLine)
	}
	if s := unsafe.Sizeof(MQHandle{}); s%pad.CacheLine != 0 {
		t.Errorf("MQHandle is %d bytes, not a multiple of %d", s, pad.CacheLine)
	}
	c, q := NewMultiCounter(8), NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: 8}, Batch: 8})
	owner := map[uintptr]int{}
	var keep []any // holds every handle so no address is reused
	claim := func(n int, p unsafe.Pointer, size uintptr) {
		for line := uintptr(p) / pad.CacheLine; line <= (uintptr(p)+size-1)/pad.CacheLine; line++ {
			if prev, taken := owner[line]; taken {
				t.Fatalf("handles %d and %d share a cache line", prev, n)
			}
			owner[line] = n
		}
	}
	claimCand := func(n int, s *Sampler) {
		claim(n, unsafe.Pointer(unsafe.SliceData(s.cand)), uintptr(cap(s.cand))*unsafe.Sizeof(s.cand[0]))
	}
	for i := 0; i < 64; i++ {
		ch, qh := c.NewHandle(uint64(i)), q.NewHandle(uint64(i))
		keep = append(keep, ch, qh)
		claim(2*i, unsafe.Pointer(ch), unsafe.Sizeof(*ch))
		claim(2*i+1, unsafe.Pointer(qh), unsafe.Sizeof(*qh))
		claimCand(2*i, &ch.smp)
		claimCand(2*i+1, &qh.enq)
		claimCand(2*i+1, &qh.deq)
	}
	runtime.KeepAlive(keep)
}

// TestShardsOwnTheirLines pins the shard layout: a cpq.Queue is exactly one
// cache line block, and a MultiQueue's shards start on block boundaries, so
// no two of them — in one structure or across several — touch the same
// block. 1 and 3 shards fit in 512 bytes, which the allocator places with no
// type header in front; 5, 8, 64 and 100 do not, and 5 behind its header
// rounds up to a size class that is not a multiple of 128 (cpq's
// alignedQueues).
func TestShardsOwnTheirLines(t *testing.T) {
	if s := unsafe.Sizeof(cpq.Queue{}); s != pad.CacheLine {
		t.Fatalf("cpq.Queue is %d bytes, want %d", s, pad.CacheLine)
	}
	owner := map[uintptr]string{}
	var keep []*MultiQueue
	for _, m := range []int{1, 3, 5, 8, 64, 100} {
		q := NewMultiQueue(MultiQueueConfig{Topology: Topology{InitialM: m}})
		keep = append(keep, q)
		for i := range q.qs {
			p := uintptr(unsafe.Pointer(&q.qs[i]))
			if p%pad.CacheLine != 0 {
				t.Fatalf("m %d: shard %d starts at offset %d of its block", m, i, p%pad.CacheLine)
			}
			name := fmt.Sprintf("m %d shard %d", m, i)
			for b := p / pad.CacheLine; b <= (p+unsafe.Sizeof(q.qs[i])-1)/pad.CacheLine; b++ {
				if prev, taken := owner[b]; taken {
					t.Fatalf("%s and %s touch the same block", prev, name)
				}
				owner[b] = name
			}
		}
	}
	runtime.KeepAlive(keep)
}

// TestHandleFastPathInlines asks the compiler whether Add and Increment still
// fit the inliner's budget. A field or branch that pushes them back over it
// costs every buffered increment a call, about a fifth of lib-counter's
// throughput, and nothing else would notice.
func TestHandleFastPathInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, want := range []string{"can inline (*Handle).Add", "can inline (*Handle).Increment"} {
		if !strings.Contains(string(out), want+"\n") {
			t.Errorf("compiler no longer reports %q", want)
		}
	}
}
