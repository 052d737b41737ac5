package graph

// Range is a half-open contiguous vertex interval [Lo, Hi).
type Range struct {
	Lo, Hi uint32
}

// Len returns the number of vertices in the range.
func (r Range) Len() uint32 { return r.Hi - r.Lo }

// PartitionEdgeBalanced splits the vertex set into at most p contiguous
// ranges with approximately equal numbers of in-edges (in=true, for pull
// traversals over the CSC) or out-edges (in=false, over the CSR): the
// edge-balanced partitioning the paper's runtime uses for parallel SpMV
// (§III-B, following GraphGrind). Empty trailing ranges are dropped, so
// fewer than p ranges may be returned for small graphs. It implements
// Topology.
func (g *Graph) PartitionEdgeBalanced(in bool, p int) []Range {
	if in {
		return partitionByOffsets(g.inOff, g.n, p)
	}
	return partitionByOffsets(g.outOff, g.n, p)
}

func partitionByOffsets(off []uint64, n uint32, p int) []Range {
	return partitionByOffsetFn(func(v uint32) uint64 { return off[v] }, n, p)
}

// partitionByOffsetFn is the partitioner over an offset accessor instead
// of a materialized array, so segment-backed graphs produce *identical*
// partition boundaries to the in-RAM graph (the emulated-parallel
// interleaved access stream depends on them being the same). Queries are
// monotonically non-decreasing after the initial off(n) total, which
// keeps a segment-cursor implementation cheap.
func partitionByOffsetFn(off func(uint32) uint64, n uint32, p int) []Range {
	if p < 1 {
		p = 1
	}
	total := off(n)
	ranges := make([]Range, 0, p)
	var lo uint32
	for i := 0; i < p && lo < n; i++ {
		// Edges this partition should own: even split of the remainder.
		offLo := off(lo)
		target := offLo + (total-offLo)/uint64(p-i)
		hi := lo + 1 // at least one vertex per partition
		for hi < n && off(hi) < target {
			hi++
		}
		if i == p-1 {
			hi = n
		}
		ranges = append(ranges, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	if lo < n && len(ranges) > 0 {
		ranges[len(ranges)-1].Hi = n
	}
	return ranges
}
