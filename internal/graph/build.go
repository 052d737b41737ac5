package graph

import "fmt"

// FromEdges builds a Graph with n vertices from a directed edge list.
// Duplicate edges are kept (the CSR/CSC arrays simply contain them twice);
// use FromEdgesDedup to drop duplicates. Edges referencing vertices >= n
// cause a panic — the caller owns ID assignment.
//
// Construction is one counting sort by source followed by two transposes,
// O(|V|+|E|) time with no comparison sort: a transpose emits every row in
// ascending order of the rows it reads, so the first yields the sorted
// CSC and the second, read back from it, the sorted CSR.
func FromEdges(n uint32, edges []Edge) *Graph {
	off, adj := bucketize(n, edges)
	return fromRows(n, off, adj)
}

// fromRows builds a Graph from CSR rows in any order within each row.
func fromRows(n uint32, off []uint64, adj []uint32) *Graph {
	g := &Graph{n: n}
	g.inOff, g.inAdj = transpose(n, off, adj)
	g.outOff, g.outAdj = transpose(n, g.inOff, g.inAdj)
	return g
}

// FromEdgesDedup builds a Graph with n vertices, removing duplicate edges
// (parallel edges collapse to one).
func FromEdgesDedup(n uint32, edges []Edge) *Graph {
	g := FromEdges(n, edges)
	return g.dedup()
}

// bucketize counting-sorts edges by source and returns CSR offsets plus
// the destinations, each row in edge-list order (not sorted).
func bucketize(n uint32, edges []Edge) ([]uint64, []uint32) {
	off := make([]uint64, n+1)
	for _, e := range edges {
		if e.Src >= n || e.Dst >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.Src, e.Dst, n))
		}
		off[e.Src+1]++
	}
	for i := uint32(0); i < n; i++ {
		off[i+1] += off[i]
	}
	adj := make([]uint32, len(edges))
	cur := make([]uint64, n)
	copy(cur, off[:n])
	for _, e := range edges {
		adj[cur[e.Src]] = e.Dst
		cur[e.Src]++
	}
	return off, adj
}

// transpose derives CSC arrays from CSR arrays, or CSR from CSC: the
// output rows come out sorted because the input rows are visited in
// ascending order, whatever the order within them.
func transpose(n uint32, off []uint64, adj []uint32) ([]uint64, []uint32) {
	inOff := make([]uint64, n+1)
	for _, u := range adj[off[0]:off[n]] {
		inOff[u+1]++
	}
	for v := uint32(0); v < n; v++ {
		inOff[v+1] += inOff[v]
	}
	inAdj := make([]uint32, inOff[n])
	cur := make([]uint64, n)
	copy(cur, inOff[:n])
	for v := uint32(0); v < n; v++ {
		for _, u := range adj[off[v]:off[v+1]] {
			inAdj[cur[u]] = v
			cur[u]++
		}
	}
	return inOff, inAdj
}

// dedup removes duplicate entries from every adjacency list of both the CSR
// and CSC representations, returning a new Graph.
func (g *Graph) dedup() *Graph {
	outOff, outAdj := dedupAdj(g.n, g.outOff, g.outAdj)
	inOff, inAdj := dedupAdj(g.n, g.inOff, g.inAdj)
	return &Graph{n: g.n, outOff: outOff, outAdj: outAdj, inOff: inOff, inAdj: inAdj}
}

func dedupAdj(n uint32, off []uint64, adj []uint32) ([]uint64, []uint32) {
	nOff := make([]uint64, n+1)
	nAdj := make([]uint32, 0, len(adj))
	for v := uint32(0); v < n; v++ {
		b := adj[off[v]:off[v+1]]
		for i, u := range b {
			if i == 0 || b[i-1] != u {
				nAdj = append(nAdj, u)
			}
		}
		nOff[v+1] = uint64(len(nAdj))
	}
	return nOff, nAdj
}

// FromCSR builds a Graph directly from CSR arrays. The adjacency within each
// vertex's bucket is sorted by the constructor; the CSC side is derived.
// offsets must have n+1 entries with offsets[n] == len(adj).
func FromCSR(n uint32, offsets []uint64, adj []uint32) (*Graph, error) {
	if len(offsets) != int(n)+1 {
		return nil, fmt.Errorf("graph: FromCSR: offsets length %d != n+1 (%d)", len(offsets), n+1)
	}
	if offsets[n] != uint64(len(adj)) {
		return nil, fmt.Errorf("graph: FromCSR: tail offset %d != |adj| %d", offsets[n], len(adj))
	}
	for v := uint32(0); v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("graph: FromCSR: offsets not monotone at %d", v)
		}
	}
	for v := uint32(0); v < n; v++ {
		for _, u := range adj[offsets[v]:offsets[v+1]] {
			if u >= n {
				return nil, fmt.Errorf("graph: FromCSR: neighbour %d of %d out of range", u, v)
			}
		}
	}
	return fromRows(n, offsets, adj), nil
}

// RemoveZeroDegree drops vertices with in-degree and out-degree both zero,
// renumbering the remaining vertices contiguously while preserving their
// relative order (the paper removes zero-degree vertices from all datasets,
// §III-A). It returns the compacted graph and a mapping old→new where
// removed vertices map to NoVertex.
func (g *Graph) RemoveZeroDegree() (*Graph, []uint32) {
	mapping := make([]uint32, g.n)
	var next uint32
	for v := uint32(0); v < g.n; v++ {
		if g.OutDegree(v) == 0 && g.InDegree(v) == 0 {
			mapping[v] = NoVertex
			continue
		}
		mapping[v] = next
		next++
	}
	if next == g.n {
		return g, mapping // nothing removed
	}
	edges := make([]Edge, 0, g.NumEdges())
	for v := uint32(0); v < g.n; v++ {
		if mapping[v] == NoVertex {
			continue
		}
		for _, u := range g.OutNeighbors(v) {
			edges = append(edges, Edge{mapping[v], mapping[u]})
		}
	}
	return FromEdges(next, edges), mapping
}

// NoVertex is a sentinel vertex ID meaning "no vertex" / removed.
const NoVertex = ^uint32(0)
