package balance

import (
	"fmt"

	"repro/internal/rng"
)

// Graph is an undirected multigraph on the bins, used by the graphical
// allocation process of Peres, Talwar and Wieder ("Graphical balanced
// allocations and the (1+β)-choice process") — the framework Section 6's
// analysis extends. In graphical allocation a uniformly random *edge* is
// drawn and the ball goes to its lighter endpoint; the classic two-choice
// process is the complete graph (plus self-loops), and sparser graphs give
// weaker but still logarithmic balance, degrading as the graph's expansion
// shrinks.
type Graph struct {
	m     int
	edges [][2]int
}

// NewGraph returns a graph over m bins with the given edges. Edges may
// repeat (multigraph) and self-loops are allowed (a self-loop degenerates to
// a single-choice step for that draw).
func NewGraph(m int, edges [][2]int) *Graph {
	if m <= 0 {
		panic("balance: NewGraph needs m > 0")
	}
	if len(edges) == 0 {
		panic("balance: NewGraph needs at least one edge")
	}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= m || e[1] < 0 || e[1] >= m {
			panic("balance: NewGraph edge endpoint out of range")
		}
	}
	return &Graph{m: m, edges: edges}
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// CycleGraph returns the m-cycle: the sparsest connected 2-regular graph,
// the hardest of the standard graphical-allocation instances.
func CycleGraph(m int) *Graph {
	if m < 3 {
		panic("balance: CycleGraph needs m >= 3")
	}
	edges := make([][2]int, m)
	for i := 0; i < m; i++ {
		edges[i] = [2]int{i, (i + 1) % m}
	}
	return NewGraph(m, edges)
}

// CompleteGraph returns K_m plus one self-loop per vertex, which makes edge
// sampling exactly equivalent to drawing two independent uniform bins — the
// classic two-choice process.
func CompleteGraph(m int) *Graph {
	if m < 2 {
		panic("balance: CompleteGraph needs m >= 2")
	}
	var edges [][2]int
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ { // j == i adds the self-loop
			edges = append(edges, [2]int{i, j})
		}
	}
	return NewGraph(m, edges)
}

// HypercubeGraph returns the k-dimensional hypercube on m = 2^k vertices — a
// standard expander-like instance between the cycle and the complete graph.
func HypercubeGraph(dim int) *Graph {
	if dim < 1 || dim > 20 {
		panic("balance: HypercubeGraph needs 1 <= dim <= 20")
	}
	m := 1 << uint(dim)
	var edges [][2]int
	for v := 0; v < m; v++ {
		for b := 0; b < dim; b++ {
			u := v ^ (1 << uint(b))
			if v < u {
				edges = append(edges, [2]int{v, u})
			}
		}
	}
	return NewGraph(m, edges)
}

// RandomRegularish returns a random multigraph where every vertex has degree
// d, built with the configuration model (random perfect matching on d
// half-edges per vertex). Self-loops and parallel edges are kept — standard
// for the configuration model, and harmless for allocation.
func RandomRegularish(m, d int, seed uint64) *Graph {
	if m < 2 || d < 1 {
		panic("balance: RandomRegularish needs m >= 2, d >= 1")
	}
	if m*d%2 != 0 {
		panic("balance: RandomRegularish needs m*d even")
	}
	r := rng.NewXoshiro256(seed)
	stubs := make([]int, 0, m*d)
	for v := 0; v < m; v++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, v)
		}
	}
	// Fisher–Yates, then pair consecutive stubs.
	for i := len(stubs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	edges := make([][2]int, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		edges = append(edges, [2]int{stubs[i], stubs[i+1]})
	}
	return NewGraph(m, edges)
}

// GraphChoice is the graphical allocation process: draw a uniform edge,
// insert into its lighter endpoint.
type GraphChoice struct {
	G *Graph
}

// Pick implements Process.
func (p GraphChoice) Pick(s *State, r *rng.Xoshiro256) int {
	if p.G.m != s.M() {
		panic("balance: GraphChoice graph size mismatch")
	}
	e := p.G.edges[r.Intn(len(p.G.edges))]
	return s.LessLoaded(e[0], e[1])
}

// Name implements Process.
func (p GraphChoice) Name() string {
	return fmt.Sprintf("graphical[m=%d,edges=%d]", p.G.m, len(p.G.edges))
}
