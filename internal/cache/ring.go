package cache

import "fmt"

// Ring models the bidirectional ring interconnect of Table III that
// connects the cores' private hierarchies to the shared L3 slices and the
// memory controller. Only latency is modelled (hop count times per-hop
// cycles); bandwidth contention is folded into the per-hop cost.
type Ring struct {
	nodes  int
	hopLat int
	// Messages counts traversals, for the interconnect energy model.
	Messages uint64
	// HopsTotal accumulates hops travelled.
	HopsTotal uint64
}

// NewRing builds a ring with the given node count and per-hop latency in
// cycles.
func NewRing(nodes, hopLat int) (*Ring, error) {
	if nodes <= 0 || hopLat < 0 {
		return nil, fmt.Errorf("cache: invalid ring (%d nodes, %d hop latency)", nodes, hopLat)
	}
	return &Ring{nodes: nodes, hopLat: hopLat}, nil
}

// Hops returns the shortest-path hop count between two nodes on the
// bidirectional ring.
func (r *Ring) Hops(from, to int) int {
	if from < 0 || from >= r.nodes || to < 0 || to >= r.nodes {
		panic(fmt.Sprintf("cache: ring node out of range (%d -> %d of %d)", from, to, r.nodes))
	}
	d := from - to
	if d < 0 {
		d = -d
	}
	if alt := r.nodes - d; alt < d {
		d = alt
	}
	return d
}

// Traverse records a message between two nodes and returns its latency in
// cycles.
func (r *Ring) Traverse(from, to int) int {
	h := r.Hops(from, to)
	r.Messages++
	r.HopsTotal += uint64(h)
	return h * r.hopLat
}

// SliceFor maps a line address to its home L3 slice/directory node
// (address-interleaved across nodes).
func (r *Ring) SliceFor(lineAddr uint64) int {
	return int(lineAddr % uint64(r.nodes))
}
