package trace

import "graphlocality/internal/graph"

// Direction selects the traversal direction of Algorithm 1.
type Direction int

const (
	// Pull iterates destination vertices over the CSC, randomly *reading*
	// in-neighbours' old data (the paper's primary configuration).
	Pull Direction = iota
	// Push iterates source vertices over the CSR, randomly *writing*
	// out-neighbours' new data.
	Push
	// PushRead iterates source vertices over the CSR but performs the same
	// read operation as Pull (sum of out-neighbours' data). This is the
	// "CSR read traversal" of Table VI, which isolates the effect of the
	// format from the effect of read-vs-write.
	PushRead
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Pull:
		return "pull"
	case Push:
		return "push"
	case PushRead:
		return "push-read"
	}
	return "unknown"
}

// Sink receives simulated accesses in program order.
type Sink func(Access)

// BoundedSink receives accesses and reports whether the traversal should
// continue; returning false stops the stream (cooperative cancellation).
type BoundedSink func(Access) bool

// RunReference is the scalar reference generator of the paper's
// parallel simulation (§V-B): the vertex set is split into `threads`
// edge-balanced partitions, each partition produces its own program-order
// access stream, and execution is divided into intervals of `interval`
// accesses that are interleaved across threads round-robin. At threads <= 1
// the single partition is [0, |V|), so the stream is one SpMV iteration in
// vertex-ID order. sink observes the interleaved stream — what a shared
// last-level cache would see — one access per call, and stops it by
// returning false. It reports whether the traversal ran to completion.
//
// RunReference is the oracle the batched generators are tested against;
// keep it boring and obviously correct.
func RunReference(g *graph.Graph, l Layout, dir Direction, threads, interval int, sink BoundedSink) bool {
	interval = max(interval, 1)
	ranges := g.PartitionEdgeBalanced(dir == Pull, threads)
	iters := make([]*vertexIter, len(ranges))
	for i, r := range ranges {
		iters[i] = newVertexIter(g, l, dir, r)
	}
	live := len(iters)
	for live > 0 {
		live = 0
		for _, it := range iters {
			if it.done {
				continue
			}
			for k := 0; k < interval; k++ {
				a, ok := it.next()
				if !ok {
					break
				}
				if !sink(a) {
					return false
				}
			}
			if !it.done {
				live++
			}
		}
	}
	return true
}

// vertexIter lazily generates the access stream of one partition. This is
// equivalent to the paper's per-thread access logs without materializing
// them.
type vertexIter struct {
	g    *graph.Graph
	l    Layout
	dir  Direction
	r    graph.Range
	v    uint32 // current vertex
	ei   uint64 // current edge index within v's adjacency
	deg  uint64
	off  uint64 // first edge index of v
	st   int    // 0 = emit offsets[v], 1 = emit offsets[v+1], 2 = edges loop, 3 = emit Di+1[v] (pull) / advance
	done bool
}

func newVertexIter(g *graph.Graph, l Layout, dir Direction, r graph.Range) *vertexIter {
	it := &vertexIter{g: g, l: l, dir: dir, r: r, v: r.Lo}
	if r.Lo >= r.Hi {
		it.done = true
	}
	return it
}

func (it *vertexIter) offsets() []uint64 {
	if it.dir == Pull {
		return it.g.InOffsets()
	}
	return it.g.OutOffsets()
}

func (it *vertexIter) adj() []uint32 {
	if it.dir == Pull {
		return it.g.InEdges()
	}
	return it.g.OutEdges()
}

// next returns the next access of the partition's program order.
func (it *vertexIter) next() (Access, bool) {
	for !it.done {
		switch it.st {
		case 0: // read offsets[v]
			off := it.offsets()
			it.off = off[it.v]
			it.deg = off[it.v+1] - off[it.v]
			it.ei = 0
			it.st = 1
			return Access{Addr: it.l.OffsetsAddr(it.v), Kind: KindOffsets, Vertex: it.v, Dest: it.v}, true
		case 1: // read offsets[v+1]
			it.st = 2
			return Access{Addr: it.l.OffsetsAddr(it.v + 1), Kind: KindOffsets, Vertex: it.v, Dest: it.v}, true
		case 2: // edges loop: alternate edges[i] read and vertex-data access
			if it.ei >= it.deg {
				it.st = 4
				continue
			}
			it.st = 3
			return Access{Addr: it.l.EdgeAddr(it.off + it.ei), Kind: KindEdges, Vertex: it.v, Dest: it.v}, true
		case 3: // the random vertex-data access for the current edge
			u := it.adj()[it.off+it.ei]
			it.ei++
			it.st = 2
			switch it.dir {
			case Pull, PushRead:
				return Access{Addr: it.l.OldDataAddr(u), Kind: KindVertexRead, Vertex: u, Dest: it.v}, true
			default: // Push: random write of the neighbour's new data
				return Access{Addr: it.l.NewDataAddr(u), Kind: KindVertexWrite, Write: true, Vertex: u, Dest: it.v}, true
			}
		case 4: // end of vertex: pull/push-read write own Di+1[v]; push reads own Di[v]
			v := it.v
			it.v++
			if it.v >= it.r.Hi {
				it.done = true
			}
			it.st = 0
			switch it.dir {
			case Pull, PushRead:
				return Access{Addr: it.l.NewDataAddr(v), Kind: KindVertexWrite, Write: true, Vertex: v, Dest: v}, true
			default:
				return Access{Addr: it.l.OldDataAddr(v), Kind: KindVertexRead, Vertex: v, Dest: v}, true
			}
		}
	}
	return Access{}, false
}

// CountAccesses returns the exact number of accesses one SpMV iteration
// generates: per vertex two offsets reads and one own-data access, plus
// two accesses per edge (edges element + neighbour data).
func CountAccesses(g graph.Dims) uint64 {
	return 3*uint64(g.NumVertices()) + 2*g.NumEdges()
}
