package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestDegreeSlices(t *testing.T) {
	g := diamond()
	out := g.OutDegrees()
	in := g.InDegrees()
	total := g.TotalDegrees()
	for v := uint32(0); v < g.NumVertices(); v++ {
		if out[v] != g.OutDegree(v) {
			t.Errorf("OutDegrees[%d] = %d", v, out[v])
		}
		if in[v] != g.InDegree(v) {
			t.Errorf("InDegrees[%d] = %d", v, in[v])
		}
		if total[v] != out[v]+in[v] {
			t.Errorf("TotalDegrees[%d] = %d, want %d", v, total[v], out[v]+in[v])
		}
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := DegreeHistogram([]uint32{1, 2, 2, 3, 3, 3})
	if h[1] != 1 || h[2] != 2 || h[3] != 3 {
		t.Errorf("histogram = %v", h)
	}
	if len(DegreeHistogram(nil)) != 0 {
		t.Error("empty histogram should be empty")
	}
}

func TestVerticesByDegree(t *testing.T) {
	deg := []uint32{5, 1, 5, 3}
	desc := VerticesByDegreeDesc(deg)
	// Degrees 5,5,3,1 with ID tiebreak ascending: 0,2,3,1.
	want := []uint32{0, 2, 3, 1}
	for i := range want {
		if desc[i] != want[i] {
			t.Fatalf("desc = %v, want %v", desc, want)
		}
	}
	asc := VerticesByDegreeAsc(deg)
	wantAsc := []uint32{1, 3, 0, 2}
	for i := range wantAsc {
		if asc[i] != wantAsc[i] {
			t.Fatalf("asc = %v, want %v", asc, wantAsc)
		}
	}
}

func TestAccessorSlices(t *testing.T) {
	g := diamond()
	if len(g.OutOffsets()) != int(g.NumVertices())+1 {
		t.Error("OutOffsets length")
	}
	if len(g.InOffsets()) != int(g.NumVertices())+1 {
		t.Error("InOffsets length")
	}
	if uint64(len(g.OutEdges())) != g.NumEdges() {
		t.Error("OutEdges length")
	}
	if uint64(len(g.InEdges())) != g.NumEdges() {
		t.Error("InEdges length")
	}
	// Offsets index the edges arrays consistently.
	off := g.OutOffsets()
	adj := g.OutEdges()
	for v := uint32(0); v < g.NumVertices(); v++ {
		nbrs := adj[off[v]:off[v+1]]
		want := g.OutNeighbors(v)
		if len(nbrs) != len(want) {
			t.Fatalf("accessor mismatch at %d", v)
		}
		for i := range nbrs {
			if nbrs[i] != want[i] {
				t.Fatalf("accessor mismatch at %d", v)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	// Hand-corrupt internal state and check Validate notices.
	fresh := func() *Graph { return diamond() }

	g := fresh()
	g.outOff = g.outOff[:2]
	if g.Validate() == nil {
		t.Error("short offsets accepted")
	}

	g = fresh()
	g.outOff[0] = 1
	if g.Validate() == nil {
		t.Error("nonzero first offset accepted")
	}

	g = fresh()
	g.outOff[g.n] = 99
	if g.Validate() == nil {
		t.Error("bad tail offset accepted")
	}

	g = fresh()
	g.inAdj = g.inAdj[:len(g.inAdj)-1]
	if g.Validate() == nil {
		t.Error("CSR/CSC count mismatch accepted")
	}

	g = fresh()
	g.outOff[1], g.outOff[2] = g.outOff[2], g.outOff[1]-1
	if g.Validate() == nil {
		t.Error("non-monotone offsets accepted")
	}

	g = fresh()
	g.outAdj[0] = 99
	if g.Validate() == nil {
		t.Error("out-of-range neighbour accepted")
	}

	g = fresh()
	if len(g.outAdj) >= 2 && g.outAdj[0] < g.outAdj[1] {
		g.outAdj[0], g.outAdj[1] = g.outAdj[1], g.outAdj[0]
		if g.Validate() == nil {
			t.Error("unsorted adjacency accepted")
		}
	}

	g = fresh()
	g.inAdj[len(g.inAdj)-1] = 98
	if g.Validate() == nil {
		t.Error("bad in-adjacency accepted")
	}
}

func TestGiantComponentTieBreak(t *testing.T) {
	// Two components with equal edge counts: the smaller label wins.
	g := FromEdges(4, []Edge{{0, 1}, {2, 3}})
	labels, k := g.ConnectedComponents()
	if k != 2 {
		t.Fatal("want 2 components")
	}
	if gcc := g.GiantComponent(labels, k); gcc != labels[0] {
		t.Errorf("tie should go to the smaller label, got %d", gcc)
	}
}

// TestVerticesByDegreeMatchesSortReference checks both degree orders
// against a comparison sort on random degree arrays with many ties, some
// with degrees far above the vertex count.
func TestVerticesByDegreeMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(100)
		// Every fifth trial draws from values that include one beyond the
		// counting sort's range, so ties also reach the fallback sort.
		values := make([]uint32, 1+rng.Intn(8))
		for i := range values {
			values[i] = uint32(i)
		}
		if trial%5 == 0 {
			values[0] = 1 << 30
		}
		deg := make([]uint32, n)
		for i := range deg {
			deg[i] = values[rng.Intn(len(values))]
		}
		for _, desc := range []bool{false, true} {
			want := make([]uint32, n)
			for i := range want {
				want[i] = uint32(i)
			}
			sort.Slice(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if deg[a] != deg[b] {
					return (deg[a] > deg[b]) == desc
				}
				return a < b
			})
			got := VerticesByDegreeAsc(deg)
			if desc {
				got = VerticesByDegreeDesc(deg)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d desc=%v: %v; reference %v (deg %v)", trial, desc, got, want, deg)
			}
		}
	}
}
