package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestConnectedComponentsSimple(t *testing.T) {
	// Two components: {0,1,2} via directed chain, {3,4}.
	g := FromEdges(5, []Edge{{0, 1}, {2, 1}, {3, 4}})
	labels, k := g.ConnectedComponents()
	if k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("0,1,2 should share a component (undirected view)")
	}
	if labels[3] != labels[4] {
		t.Error("3,4 should share a component")
	}
	if labels[0] == labels[3] {
		t.Error("components should differ")
	}
}

func TestConnectedComponentsIsolated(t *testing.T) {
	g := FromEdges(3, nil)
	labels, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	seen := map[uint32]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Error("isolated vertices share labels")
		}
		seen[l] = true
	}
}

func TestComponentsExcluding(t *testing.T) {
	// Star: 0 is the hub. Removing it isolates the leaves.
	g := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	removed := []bool{true, false, false, false}
	labels, k := g.ComponentsExcluding(removed)
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if labels[0] != NoVertex {
		t.Error("removed vertex must be labeled NoVertex")
	}
}

func TestComponentSizes(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {2, 1}, {3, 4}})
	labels, k := g.ConnectedComponents()
	sizes := ComponentSizes(labels, k)
	total := uint32(0)
	for _, s := range sizes {
		total += s
	}
	if total != 5 {
		t.Errorf("sizes sum to %d, want 5", total)
	}
}

func TestGiantComponent(t *testing.T) {
	// Component A: triangle (3 edges). Component B: single edge.
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}})
	labels, k := g.ConnectedComponents()
	gcc := g.GiantComponent(labels, k)
	if gcc != labels[0] {
		t.Errorf("GCC = %d, want the triangle's label %d", gcc, labels[0])
	}
	if g.GiantComponent(nil, 0) != NoVertex {
		t.Error("GCC of empty labeling should be NoVertex")
	}
}

// Property: components partition the vertex set; every edge's endpoints
// share a label.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(rng.Intn(80) + 1)
		g := randomGraph(rng, n, rng.Intn(200))
		labels, k := g.ConnectedComponents()
		for _, l := range labels {
			if l >= k {
				return false
			}
		}
		for _, e := range g.Edges() {
			if labels[e.Src] != labels[e.Dst] {
				return false
			}
		}
		sizes := ComponentSizes(labels, k)
		var total uint32
		for _, s := range sizes {
			if s == 0 {
				return false // no empty components
			}
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestComponentsOnUndirectedMatchUnaliasedCopy: on Undirected's output
// the in-side scan is skipped because the CSC aliases the CSR; the labels
// must equal those of the same symmetric graph built with its own CSC.
func TestComponentsOnUndirectedMatchUnaliasedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := uint32(rng.Intn(80) + 1)
		und := randomGraph(rng, n, rng.Intn(150)).Undirected()
		if !und.aliasesCSR() {
			t.Fatal("Undirected output does not alias its CSR")
		}
		copied := FromEdges(n, und.Edges())
		if copied.aliasesCSR() {
			t.Fatal("FromEdges output aliases its CSR")
		}
		removed := make([]bool, n)
		for v := range removed {
			removed[v] = rng.Intn(4) == 0
		}
		for _, rm := range [][]bool{nil, removed} {
			gl, gk := und.componentsFiltered(rm)
			wl, wk := copied.componentsFiltered(rm)
			if gk != wk || !slices.Equal(gl, wl) {
				t.Fatalf("trial %d: labels %v (%d); unaliased %v (%d)", trial, gl, gk, wl, wk)
			}
		}
	}
}
