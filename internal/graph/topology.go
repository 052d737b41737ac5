package graph

// Topology abstraction. The trace generators and the simulators built on
// them never need a fully materialized CSR/CSC — they consume adjacency
// rows in ascending vertex order, one contiguous run at a time. Topology
// captures exactly that access pattern, so the same batched simulation
// pipeline runs over an in-RAM *Graph (one zero-copy span) or an
// out-of-core *SegGraph (one decoded span per on-disk segment) without
// either representation knowing about the other.

// Dims is the minimal size view of a graph representation: enough to
// build an address layout and scale a cache geometry.
type Dims interface {
	NumVertices() uint32
	NumEdges() uint64
}

// RowCursor streams the adjacency rows of a vertex range as contiguous
// decoded spans. Each Next call returns the next span: base is the first
// vertex covered, off holds the *absolute* CSR/CSC offsets of vertices
// [base, base+len(off)-1) (len(off) = span vertices + 1), and adj holds
// the span's neighbour IDs with adj[0] at absolute edge index off[0].
// Spans are contiguous and ascending: the first span starts at the
// cursor's lo, each next span starts where the previous ended, and the
// last ends at hi. Returned slices are valid until the next Next call at
// the earliest representation-defined eviction; callers must not modify
// them.
type RowCursor interface {
	Next() (base uint32, off []uint64, adj []uint32, ok bool)
}

// Topology is the representation-independent graph view the batched
// trace generators consume: sizes, row streaming in either direction,
// and the edge-balanced partitioning parallel traversals use. Both
// *Graph and *SegGraph implement it.
type Topology interface {
	Dims
	// Rows returns a cursor over the CSR (in=false, out-edges) or CSC
	// (in=true, in-edges) rows of vertices [lo, hi).
	Rows(in bool, lo, hi uint32) RowCursor
	// PartitionEdgeBalanced splits [0, |V|) into at most p contiguous
	// ranges of approximately equal edge counts in the chosen direction,
	// with identical boundaries across implementations (the emulated-
	// parallel interleaved stream depends on them).
	PartitionEdgeBalanced(in bool, p int) []Range
}

// sliceCursor is the in-RAM cursor: the whole range as one zero-copy
// span over the graph's arrays.
type sliceCursor struct {
	base uint32
	off  []uint64
	adj  []uint32
	done bool
}

func (c *sliceCursor) Next() (uint32, []uint64, []uint32, bool) {
	if c.done || len(c.off) < 2 {
		return 0, nil, nil, false
	}
	c.done = true
	return c.base, c.off, c.adj, true
}

// Rows implements Topology: the in-RAM graph serves any vertex range as
// a single span aliasing its CSR/CSC arrays.
func (g *Graph) Rows(in bool, lo, hi uint32) RowCursor {
	if hi > g.n {
		hi = g.n
	}
	if lo >= hi {
		return &sliceCursor{done: true}
	}
	off, adj := g.outOff, g.outAdj
	if in {
		off, adj = g.inOff, g.inAdj
	}
	return &sliceCursor{
		base: lo,
		off:  off[lo : hi+1],
		adj:  adj[off[lo]:off[hi]],
	}
}
