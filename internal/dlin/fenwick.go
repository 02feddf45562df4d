package dlin

// Fenwick is a binary indexed tree over positions 1..n used for O(log n)
// rank queries when replaying queue histories. Values are multiplicities
// (0 or 1 in the queue spec, but the structure supports counts).
type Fenwick struct {
	t []int64
}

// NewFenwick returns a tree over positions 1..n.
func NewFenwick(n int) *Fenwick {
	if n < 0 {
		panic("dlin: NewFenwick needs n >= 0")
	}
	return &Fenwick{t: make([]int64, n+1)}
}

// Len returns the position-space size n.
func (f *Fenwick) Len() int { return len(f.t) - 1 }

// Reset zeroes the tree.
func (f *Fenwick) Reset() {
	for i := range f.t {
		f.t[i] = 0
	}
}

// Add adds delta at position i (1-based).
func (f *Fenwick) Add(i int, delta int64) {
	if i <= 0 || i >= len(f.t) {
		panic("dlin: Fenwick.Add position out of range")
	}
	for ; i < len(f.t); i += i & (-i) {
		f.t[i] += delta
	}
}

// PrefixSum returns the sum of positions 1..i.
func (f *Fenwick) PrefixSum(i int) int64 {
	if i >= len(f.t) {
		i = len(f.t) - 1
	}
	var s int64
	for ; i > 0; i -= i & (-i) {
		s += f.t[i]
	}
	return s
}

// Get returns the value at position i.
func (f *Fenwick) Get(i int) int64 { return f.PrefixSum(i) - f.PrefixSum(i-1) }
