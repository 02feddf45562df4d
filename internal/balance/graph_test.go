package balance

import (
	"testing"

	"repro/internal/rng"
)

func TestGraphConstructors(t *testing.T) {
	c := CycleGraph(8)
	if c.m != 8 || c.NumEdges() != 8 {
		t.Fatalf("cycle: m=%d edges=%d", c.m, c.NumEdges())
	}
	k := CompleteGraph(4)
	// C(4,2) + 4 self-loops = 10.
	if k.NumEdges() != 10 {
		t.Fatalf("complete: edges=%d", k.NumEdges())
	}
	h := HypercubeGraph(3)
	if h.m != 8 || h.NumEdges() != 12 { // 8 vertices * 3 / 2
		t.Fatalf("hypercube: m=%d edges=%d", h.m, h.NumEdges())
	}
	rr := RandomRegularish(16, 4, 1)
	if rr.NumEdges() != 16*4/2 {
		t.Fatalf("regular: edges=%d", rr.NumEdges())
	}
	// Degree check for the configuration model.
	deg := make([]int, 16)
	for _, e := range rr.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for v, d := range deg {
		if d != 4 {
			t.Fatalf("vertex %d degree %d, want 4", v, d)
		}
	}
}

func TestGraphPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"NewGraph m=0":        func() { NewGraph(0, [][2]int{{0, 0}}) },
		"NewGraph no edges":   func() { NewGraph(2, nil) },
		"NewGraph bad edge":   func() { NewGraph(2, [][2]int{{0, 5}}) },
		"CycleGraph small":    func() { CycleGraph(2) },
		"CompleteGraph small": func() { CompleteGraph(1) },
		"Hypercube dim0":      func() { HypercubeGraph(0) },
		"Regular odd":         func() { RandomRegularish(3, 3, 1) },
		"GraphChoice size":    func() { GraphChoice{G: CycleGraph(4)}.Pick(NewState(8), rng.NewXoshiro256(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestCompleteGraphMatchesTwoChoiceScale: allocation on K_m + self-loops is
// the two-choice process; gaps should be on the same small scale.
func TestCompleteGraphMatchesTwoChoiceScale(t *testing.T) {
	m := 32
	gc := Run(RunConfig{M: m, Steps: 100_000, Seed: 31, Process: GraphChoice{G: CompleteGraph(m)}})
	tc := Run(RunConfig{M: m, Steps: 100_000, Seed: 31, Process: DChoice{D: 2}})
	if gc.Final.Gap() > tc.Final.Gap()+3 {
		t.Fatalf("complete-graph gap %v far above two-choice %v", gc.Final.Gap(), tc.Final.Gap())
	}
}

// TestGraphSparsityOrdersGaps reproduces the Peres–Talwar–Wieder hierarchy:
// the cycle balances worse than the hypercube, which balances worse than (or
// close to) the complete graph; all stay bounded.
func TestGraphSparsityOrdersGaps(t *testing.T) {
	const dim = 6 // m = 64
	m := 1 << dim
	steps := int64(200_000)
	cyc := Run(RunConfig{M: m, Steps: steps, Seed: 32, Process: GraphChoice{G: CycleGraph(m)}})
	hyp := Run(RunConfig{M: m, Steps: steps, Seed: 32, Process: GraphChoice{G: HypercubeGraph(dim)}})
	com := Run(RunConfig{M: m, Steps: steps, Seed: 32, Process: GraphChoice{G: CompleteGraph(m)}})
	if !(cyc.Final.Gap() > hyp.Final.Gap()) {
		t.Fatalf("cycle gap %v not above hypercube gap %v", cyc.Final.Gap(), hyp.Final.Gap())
	}
	if hyp.Final.Gap() > 3*com.Final.Gap()+6 {
		t.Fatalf("hypercube gap %v too far above complete %v", hyp.Final.Gap(), com.Final.Gap())
	}
	// Even the cycle stays polylogarithmic-small at this scale.
	if cyc.Final.Gap() > 12*log2(m) {
		t.Fatalf("cycle gap %v suspiciously large", cyc.Final.Gap())
	}
}

func TestRandomRegularBounded(t *testing.T) {
	m := 64
	for _, d := range []int{2, 4, 8} {
		g := RandomRegularish(m, d, 33)
		res := Run(RunConfig{M: m, Steps: 100_000, Seed: 34, Process: GraphChoice{G: g}})
		if res.Final.Gap() > 16*log2(m) {
			t.Fatalf("d=%d regular gap %v too large", d, res.Final.Gap())
		}
	}
}

func TestGraphChoiceName(t *testing.T) {
	p := GraphChoice{G: CycleGraph(4)}
	if p.Name() != "graphical[m=4,edges=4]" {
		t.Fatalf("Name = %q", p.Name())
	}
}
