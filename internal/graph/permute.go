package graph

import "fmt"

// Permutation is a relabeling array as produced by a reordering algorithm
// (§II-E): it is indexed by the old ID of a vertex and specifies the new ID.
type Permutation []uint32

// Identity returns the identity permutation of n vertices.
func Identity(n uint32) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}

// Validate checks that p is a bijection on [0, len(p)).
func (p Permutation) Validate() error {
	seen := make([]bool, len(p))
	for old, nw := range p {
		if int(nw) >= len(p) {
			return fmt.Errorf("permutation: new ID %d of vertex %d out of range (n=%d)", nw, old, len(p))
		}
		if seen[nw] {
			return fmt.Errorf("permutation: new ID %d assigned twice", nw)
		}
		seen[nw] = true
	}
	return nil
}

// Inverse returns the inverse permutation: Inverse()[new] == old.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for old, nw := range p {
		inv[nw] = uint32(old)
	}
	return inv
}

// Compose returns the permutation that first applies p and then q:
// result[v] = q[p[v]]. Both must have the same length.
func (p Permutation) Compose(q Permutation) Permutation {
	if len(p) != len(q) {
		panic("graph: composing permutations of different sizes")
	}
	r := make(Permutation, len(p))
	for v := range p {
		r[v] = q[p[v]]
	}
	return r
}

// Relabel rebuilds the graph under the relabeling array perm (old→new), as
// a reordering algorithm's final step (§II-E): CSR and CSC are rebuilt with
// the new vertex IDs and sorted adjacency. The new CSC is filled directly
// by walking new source IDs in ascending order, so its rows come out
// sorted; one transpose then yields the CSR.
func (g *Graph) Relabel(perm Permutation) *Graph {
	if len(perm) != int(g.n) {
		panic(fmt.Sprintf("graph: permutation length %d != |V| %d", len(perm), g.n))
	}
	n := g.n
	inOff := make([]uint64, n+1)
	for v := uint32(0); v < n; v++ {
		inOff[perm[v]+1] = uint64(g.InDegree(v))
	}
	for v := uint32(0); v < n; v++ {
		inOff[v+1] += inOff[v]
	}
	inAdj := make([]uint32, inOff[n])
	cur := make([]uint64, n)
	copy(cur, inOff[:n])
	for nv, v := range perm.Inverse() {
		for _, u := range g.OutNeighbors(v) {
			nu := perm[u]
			inAdj[cur[nu]] = uint32(nv)
			cur[nu]++
		}
	}
	h := &Graph{n: n, inOff: inOff, inAdj: inAdj}
	h.outOff, h.outAdj = transpose(n, inOff, inAdj)
	return h
}
