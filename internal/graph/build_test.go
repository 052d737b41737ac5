package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refGraph is the test-local reference construction the sort-free builders
// must reproduce bit for bit: an edge list appended row by row, each row
// sorted with sort.Slice, duplicates optionally dropped. It shares no code
// with the package's builders.
func refGraph(n uint32, edges []Edge, dedup bool) *Graph {
	build := func(key func(Edge) (uint32, uint32)) ([]uint64, []uint32) {
		rows := make([][]uint32, n)
		for _, e := range edges {
			k, v := key(e)
			rows[k] = append(rows[k], v)
		}
		off := make([]uint64, n+1)
		adj := []uint32{}
		for k, row := range rows {
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			for i, v := range row {
				if dedup && i > 0 && row[i-1] == v {
					continue
				}
				adj = append(adj, v)
			}
			off[k+1] = uint64(len(adj))
		}
		return off, adj
	}
	g := &Graph{n: n}
	g.outOff, g.outAdj = build(func(e Edge) (uint32, uint32) { return e.Src, e.Dst })
	g.inOff, g.inAdj = build(func(e Edge) (uint32, uint32) { return e.Dst, e.Src })
	return g
}

// requireSameGraph fails unless got validates and has exactly want's four
// CSR/CSC arrays; Equal must hold in both directions too.
func requireSameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", what, err)
	}
	if got.NumVertices() != want.NumVertices() ||
		!slices.Equal(got.OutOffsets(), want.OutOffsets()) || !slices.Equal(got.OutEdges(), want.OutEdges()) ||
		!slices.Equal(got.InOffsets(), want.InOffsets()) || !slices.Equal(got.InEdges(), want.InEdges()) {
		t.Fatalf("%s: arrays differ\ngot  out %v %v in %v %v\nwant out %v %v in %v %v", what,
			got.OutOffsets(), got.OutEdges(), got.InOffsets(), got.InEdges(),
			want.OutOffsets(), want.OutEdges(), want.InOffsets(), want.InEdges())
	}
	if !got.Equal(want) || !got.Reverse().Equal(want.Reverse()) {
		t.Fatalf("%s: Equal fails in one direction", what)
	}
}

// randomMultigraph draws an edge list over n vertices with duplicate
// edges and self-loops; only the first half of the IDs take part, so the
// rest are isolated.
func randomMultigraph(rng *rand.Rand, n uint32) []Edge {
	if n == 0 {
		return nil
	}
	used := n/2 + 1
	edges := make([]Edge, rng.Intn(4*int(n)+1))
	for i := range edges {
		edges[i] = Edge{Src: uint32(rng.Intn(int(used))), Dst: uint32(rng.Intn(int(used)))}
		switch rng.Intn(8) {
		case 0:
			edges[i].Dst = edges[i].Src // self-loop
		case 1:
			if i > 0 {
				edges[i] = edges[rng.Intn(i)] // duplicate
			}
		}
	}
	return edges
}

// forRandomMultigraphs calls check on n = 0, n = 1 and random multigraphs
// of up to 61 vertices.
func forRandomMultigraphs(t *testing.T, seed int64, check func(what string, rng *rand.Rand, n uint32, edges []Edge)) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 300; trial++ {
		n := uint32(trial % 2) // n = 0 and n = 1 first
		if trial >= 2 {
			n = uint32(2 + rng.Intn(60))
		}
		edges := randomMultigraph(rng, n)
		check(fmt.Sprintf("trial %d n=%d |E|=%d", trial, n, len(edges)), rng, n, edges)
	}
}

func TestFromEdgesMatchesSortingReference(t *testing.T) {
	forRandomMultigraphs(t, 5, func(what string, _ *rand.Rand, n uint32, edges []Edge) {
		g := FromEdges(n, edges)
		requireSameGraph(t, what+" FromEdges", g, refGraph(n, edges, false))
		requireSameGraph(t, what+" FromEdgesDedup", FromEdgesDedup(n, edges), refGraph(n, edges, true))
		csr, err := FromCSR(n, g.OutOffsets(), g.OutEdges())
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, what+" FromCSR", csr, refGraph(n, edges, false))
	})
}

func TestRelabelMatchesSortingReference(t *testing.T) {
	forRandomMultigraphs(t, 6, func(what string, rng *rand.Rand, n uint32, edges []Edge) {
		perm := make(Permutation, n)
		for i, p := range rng.Perm(int(n)) {
			perm[i] = uint32(p)
		}
		var permuted []Edge
		for _, e := range edges {
			permuted = append(permuted, Edge{Src: perm[e.Src], Dst: perm[e.Dst]})
		}
		requireSameGraph(t, what+" Relabel", FromEdges(n, edges).Relabel(perm), refGraph(n, permuted, false))
	})
}

func TestUndirectedMatchesSortingReference(t *testing.T) {
	forRandomMultigraphs(t, 7, func(what string, _ *rand.Rand, n uint32, edges []Edge) {
		var sym []Edge
		for _, e := range edges {
			sym = append(sym, e, Edge{Src: e.Dst, Dst: e.Src})
		}
		requireSameGraph(t, what+" Undirected", FromEdges(n, edges).Undirected(), refGraph(n, sym, true))
	})
}

func TestFromCSRUnsortedRows(t *testing.T) {
	// Rows may arrive in any order; both directions come out sorted.
	g, err := FromCSR(3, []uint64{0, 3, 3, 5}, []uint32{2, 0, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	edges := []Edge{{0, 2}, {0, 0}, {0, 2}, {2, 1}, {2, 0}}
	requireSameGraph(t, "FromCSR", g, refGraph(3, edges, false))
}
