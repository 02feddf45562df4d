package core

// Topology is the shard count of both relaxed structures: InitialM is m, the
// number of shards, fixed for the structure's whole life (the paper's
// analysis assumes a constant m ≥ C·n; DESIGN.md §2).
type Topology struct {
	// InitialM is m, the number of shards. It must be positive.
	InitialM int
}

// shards returns m, panicking (like every config constructor in this
// package) when it is not positive. name labels the panic message with the
// enclosing config.
func (t Topology) shards(name string) int {
	if t.InitialM <= 0 {
		panic("core: " + name + " needs a positive shard count (Topology.InitialM)")
	}
	return t.InitialM
}
