package heap

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// Key widths for the sort tests: the mask of bits a key may use, and
// sortTopByte, keys that share their low 56 bits and differ only in the top
// byte.
const sortTopByte = 0

var sortWidths = []uint64{0xff, 0xffff, 1<<48 - 1, ^uint64(0), sortTopByte}

// Input shapes for the sort tests.
const (
	shapeRandom     = iota
	shapeEqual      // one key
	shapeAscending  // non-decreasing, as FIFO stamps leave the pending heap
	shapeDescending // already sorted
	shapeHeap       // heap-ordered, as flush finds the pending heap
	shapeDuplicates // seven distinct keys spread over every byte
	shapeClusters   // seven clusters of keys that differ in the low byte only
	sortShapes
)

// sortInput builds n items of the given width and shape, Values 0..n-1. Keys
// come from raw (eight bytes each) while it lasts and from a generator seeded
// by its length after that.
func sortInput(width uint64, shape, n int, raw []byte) []Item {
	r := rng.NewXoshiro256(uint64(len(raw)) + 1)
	const spread = 0x9E3779B97F4A7C15 // odd, so seven multiples differ in every byte
	s := make([]Item, n)
	for i := range s {
		k := r.Next()
		if len(raw) >= 8 {
			k, raw = binary.LittleEndian.Uint64(raw), raw[8:]
		}
		switch shape {
		case shapeDuplicates:
			k = k % 7 * spread
		case shapeClusters:
			k = (k>>8)%7*spread&^0xff | k&0xff
		}
		if width == sortTopByte {
			k = k<<56 | 0x00a1b2c3d4e5f607
		} else {
			k &= width
		}
		s[i] = Item{Priority: k, Value: uint64(i)}
	}
	switch shape {
	case shapeEqual:
		for i := range s {
			s[i].Priority = s[0].Priority
		}
	case shapeAscending:
		slices.SortFunc(s, func(x, y Item) int { return cmp.Compare(x.Priority, y.Priority) })
	case shapeDescending:
		slices.SortFunc(s, byPriorityDescending)
	case shapeHeap:
		var h Binary
		for _, it := range s {
			h.pushPending(it)
		}
		s = h.p
	}
	return s
}

func byPriorityDescending(x, y Item) int { return cmp.Compare(y.Priority, x.Priority) }

// checkSortDescending sorts a copy of in with sortDescending and fails unless
// the result is non-increasing by priority and a permutation of in (the
// Values are unique, so equal multisets of items are equal sorted lists).
func checkSortDescending(t *testing.T, in []Item) {
	t.Helper()
	got := slices.Clone(in)
	sortDescending(got)
	for i := 1; i < len(got); i++ {
		if got[i-1].Priority < got[i].Priority {
			t.Fatalf("n=%d: out of order at %d: %#x then %#x", len(in), i, got[i-1].Priority, got[i].Priority)
		}
	}
	total := func(x, y Item) int {
		if c := byPriorityDescending(x, y); c != 0 {
			return c
		}
		return cmp.Compare(x.Value, y.Value)
	}
	want := slices.Clone(in)
	slices.SortFunc(want, total)
	slices.SortFunc(got, total)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d: sorted items are not a permutation of the input", len(in))
	}
}

// FuzzSortDescending checks the flush kernel against slices.SortFunc. The
// first byte picks the key width, the second the input shape, the next two
// the length (0..511); the rest are key bytes.
func FuzzSortDescending(f *testing.F) {
	for w := range sortWidths {
		for shape := 0; shape < sortShapes; shape++ {
			f.Add([]byte{byte(w), byte(shape), 44, 1}) // 300 items
		}
	}
	for _, n := range []byte{0, 1, 2, 33} {
		f.Add([]byte{3, shapeRandom, n, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 255})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [4]byte
		copy(hdr[:], data)
		width := sortWidths[int(hdr[0])%len(sortWidths)]
		shape := int(hdr[1]) % sortShapes
		n := int(binary.LittleEndian.Uint16(hdr[2:])) % 512
		checkSortDescending(t, sortInput(width, shape, n, data[min(len(data), 4):]))
	})
}

// TestSortDescendingCutoff runs lengths on both sides of sortCutoff, where the
// kernel switches from insertion sort to a radix pass, and one that splits into
// buckets on either side of it.
func TestSortDescendingCutoff(t *testing.T) {
	for _, n := range []int{sortCutoff - 1, sortCutoff, sortCutoff + 1, 257} {
		for w, width := range sortWidths {
			for shape := 0; shape < sortShapes; shape++ {
				t.Run(fmt.Sprintf("n%d/w%d/shape%d", n, w, shape), func(t *testing.T) {
					checkSortDescending(t, sortInput(width, shape, n, nil))
				})
			}
		}
	}
}

// TestSortDescendingZeroAlloc pins that flush's sort allocates nothing, at a
// pending heap's size and at a whole shard's, the sort of a PushBatch that
// rivals what is stored.
func TestSortDescendingZeroAlloc(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14} {
		for _, shape := range []int{shapeRandom, shapeHeap, shapeDuplicates} {
			in := sortInput(1<<48-1, shape, n, nil)
			s := make([]Item, n)
			if a := testing.AllocsPerRun(5, func() {
				copy(s, in)
				sortDescending(s)
			}); a != 0 {
				t.Fatalf("n=%d shape %d: %v allocations per sort", n, shape, a)
			}
		}
	}
}

// BenchmarkSortDescending times the kernel beside the slices.SortFunc call it
// replaced, on heap-ordered input like a flush's: uniform 48-bit keys, clock
// stamps, and Zipf keys over 2^20 (duplicate-heavy).
func BenchmarkSortDescending(b *testing.B) {
	keys := map[string]func(r *rng.Xoshiro256, z *rng.Zipf, i int) uint64{
		"uniform": func(r *rng.Xoshiro256, _ *rng.Zipf, _ int) uint64 { return r.Next() >> 16 },
		"stamps":  func(_ *rng.Xoshiro256, _ *rng.Zipf, i int) uint64 { return 1<<40 + uint64(i) },
		"zipf":    func(_ *rng.Xoshiro256, z *rng.Zipf, _ int) uint64 { return uint64(z.Next()) },
	}
	sorts := map[string]func([]Item){
		"kernel":   sortDescending,
		"SortFunc": func(s []Item) { slices.SortFunc(s, byPriorityDescending) },
	}
	for name, key := range keys {
		for _, n := range []int{64, 1 << 10, 1 << 14} {
			r := rng.NewXoshiro256(1)
			z := rng.NewZipf(r, 1<<20, 0.99)
			var h Binary
			for i := 0; i < n; i++ {
				h.pushPending(Item{Priority: key(r, z, i), Value: uint64(i)})
			}
			s := make([]Item, n)
			for sortName, sort := range sorts {
				b.Run(fmt.Sprintf("%s/%d/%s", name, n, sortName), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(s, h.p)
						sort(s)
					}
				})
			}
		}
	}
}
