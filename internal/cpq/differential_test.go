package cpq

import (
	"sort"
	"testing"

	"repro/internal/heap"
	"repro/internal/rng"
)

// TestDifferentialAllBackings drives the queue's entry points with batches
// of one and of up to 16, lock and top-word publish included, through
// randomized operation streams against a sorted-slice reference model. Every
// removal order, every published minimum and every Len must match the model
// exactly.
func TestDifferentialAllBackings(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		r := rng.NewXoshiro256(11)
		for round := 0; round < 10; round++ {
			q := newQueue(4)
			var ref []uint64
			pushRef := func(p uint64) {
				i := sort.Search(len(ref), func(i int) bool { return ref[i] >= p })
				ref = append(ref, 0)
				copy(ref[i+1:], ref[i:])
				ref[i] = p
			}
			var batch []heap.Item
			for op := 0; op < 600; op++ {
				switch r.Uint64n(5) {
				case 0, 1:
					p := r.Uint64n(128)
					addOne(q, p, r.Next())
					pushRef(p)
				case 2:
					it, ok := deleteOne(q)
					if ok != (len(ref) > 0) {
						t.Fatalf("op %d: DeleteMinUpTo(1) ok=%v with %d modeled items", op, ok, len(ref))
					}
					if ok {
						if it.Priority != ref[0] {
							t.Fatalf("op %d: DeleteMinUpTo(1) = %d, want %d", op, it.Priority, ref[0])
						}
						ref = ref[1:]
					}
				case 3:
					k := int(r.Uint64n(17))
					batch = batch[:0]
					for i := 0; i < k; i++ {
						p := r.Uint64n(128)
						batch = append(batch, heap.Item{Priority: p, Value: r.Next()})
						pushRef(p)
					}
					q.AddBatch(batch)
				case 4:
					k := int(r.Uint64n(17))
					got := q.DeleteMinUpTo(k, batch[:0])
					batch = got[:0]
					for i, it := range got {
						if it.Priority != ref[i] {
							t.Fatalf("op %d: DeleteMinUpTo[%d] = %d, want %d", op, i, it.Priority, ref[i])
						}
					}
					wantN := k
					if wantN > len(ref) {
						wantN = len(ref)
					}
					if len(got) != wantN {
						t.Fatalf("op %d: DeleteMinUpTo drained %d, want %d", op, len(got), wantN)
					}
					ref = ref[len(got):]
				}
				if n := q.Len(); n != len(ref) {
					t.Fatalf("op %d: Len = %d, want %d", op, n, len(ref))
				}
				// Single-threaded, so the cached top must be exact, not
				// merely stale-but-previously-true.
				wantTop := uint64(emptyTop)
				if len(ref) > 0 {
					wantTop = ref[0]
				}
				if top := q.ReadTop().minPrio(); top != wantTop {
					t.Fatalf("op %d: ReadTop().minPrio() = %d, want %d", op, top, wantTop)
				}
			}
		}
	})
}
