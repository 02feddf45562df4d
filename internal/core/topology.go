package core

// Topology is the shared capacity surface of both relaxed structures — the
// redesigned "how many shards" API that replaces the frozen constructor
// argument m (DESIGN.md §11). InitialM is the live shard count at
// construction; MinM and MaxM bound the range Resize may move it within. The
// full MaxM shard array is allocated up front — grow and shrink only move the
// live boundary — so a resize epoch never republishes the shard slice and
// lock-free readers keep their one-atomic-load entry.
//
// The zero value of every field defaults sensibly against the structure's
// legacy m: InitialM 0 adopts the deprecated Queues/Counters field, and
// MinM/MaxM 0 pin to InitialM (a fixed-m structure, exactly the pre-epoch
// behavior). Explicit values must satisfy 1 ≤ MinM ≤ InitialM ≤ MaxM.
type Topology struct {
	// InitialM is the live shard count at construction. 0 adopts the
	// enclosing config's deprecated fixed-m field.
	InitialM int
	// MinM is the smallest live shard count a shrink may reach (0 = InitialM).
	MinM int
	// MaxM is the largest live shard count a grow may reach, and the size of
	// the backing shard array (0 = InitialM).
	MaxM int
}

// normalize resolves the Topology against a config's deprecated fixed-m
// field and validates the result, panicking (like every config constructor
// in this package) on an unsatisfiable range. name labels the panic message
// with the enclosing config.
func (t Topology) normalize(legacy int, name string) Topology {
	if t.InitialM == 0 {
		t.InitialM = legacy
	}
	if t.InitialM <= 0 {
		panic("core: " + name + " needs a positive shard count (Topology.InitialM or the deprecated fixed-m field)")
	}
	if t.MinM == 0 {
		t.MinM = t.InitialM
	}
	if t.MaxM == 0 {
		t.MaxM = t.InitialM
	}
	if t.MinM < 1 || t.MinM > t.InitialM || t.InitialM > t.MaxM {
		panic("core: " + name + " needs 1 <= MinM <= InitialM <= MaxM")
	}
	return t
}

// clamp bounds a requested live shard count to [MinM, MaxM].
func (t Topology) clamp(m int) int {
	if m < t.MinM {
		return t.MinM
	}
	if m > t.MaxM {
		return t.MaxM
	}
	return m
}
