package graph

import (
	"cmp"
	"slices"
)

// OutDegrees returns a freshly allocated slice of all out-degrees.
func (g *Graph) OutDegrees() []uint32 {
	d := make([]uint32, g.n)
	for v := uint32(0); v < g.n; v++ {
		d[v] = g.OutDegree(v)
	}
	return d
}

// InDegrees returns a freshly allocated slice of all in-degrees.
func (g *Graph) InDegrees() []uint32 {
	d := make([]uint32, g.n)
	for v := uint32(0); v < g.n; v++ {
		d[v] = g.InDegree(v)
	}
	return d
}

// TotalDegrees returns out-degree + in-degree per vertex.
func (g *Graph) TotalDegrees() []uint32 {
	d := make([]uint32, g.n)
	for v := uint32(0); v < g.n; v++ {
		d[v] = g.OutDegree(v) + g.InDegree(v)
	}
	return d
}

// DegreeHistogram returns a map degree→count over the supplied degree
// slice. It is used for the paper's Figure 2 (degree distribution of the
// GCC across SlashBurn iterations).
func DegreeHistogram(degrees []uint32) map[uint32]uint64 {
	h := make(map[uint32]uint64)
	for _, d := range degrees {
		h[d]++
	}
	return h
}

// VerticesByDegreeDesc returns vertex IDs sorted by the given degree slice,
// descending; ties broken by ascending vertex ID for determinism.
func VerticesByDegreeDesc(degrees []uint32) []uint32 {
	return verticesByDegree(degrees, true)
}

// VerticesByDegreeAsc returns vertex IDs sorted by degree ascending; ties
// broken by ascending vertex ID.
func VerticesByDegreeAsc(degrees []uint32) []uint32 {
	return verticesByDegree(degrees, false)
}

// verticesByDegree orders vertex IDs by degree, ties by ascending ID: a
// stable sort by degree over ascending IDs yields exactly that total
// order. It is a counting sort unless degrees far above the vertex count
// would make the count array outgrow the input.
func verticesByDegree(degrees []uint32, desc bool) []uint32 {
	n := len(degrees)
	order := make([]uint32, n)
	var maxDeg uint32
	for _, d := range degrees {
		maxDeg = max(maxDeg, d)
	}
	// rank maps a degree to its bucket in output order.
	rank := func(d uint32) uint32 {
		if desc {
			return maxDeg - d
		}
		return d
	}
	if uint64(maxDeg) > 4*uint64(n)+1024 {
		for i := range order {
			order[i] = uint32(i)
		}
		slices.SortStableFunc(order, func(a, b uint32) int {
			return cmp.Compare(rank(degrees[a]), rank(degrees[b]))
		})
		return order
	}
	start := make([]int, int(maxDeg)+2)
	for _, d := range degrees {
		start[rank(d)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	for v, d := range degrees {
		b := rank(d)
		order[start[b]] = uint32(v)
		start[b]++
	}
	return order
}

// CountInHubs returns the number of vertices with in-degree > √|V|.
func (g *Graph) CountInHubs() uint32 {
	t := g.HubThreshold()
	var c uint32
	for v := uint32(0); v < g.n; v++ {
		if float64(g.InDegree(v)) > t {
			c++
		}
	}
	return c
}

// CountOutHubs returns the number of vertices with out-degree > √|V|.
func (g *Graph) CountOutHubs() uint32 {
	t := g.HubThreshold()
	var c uint32
	for v := uint32(0); v < g.n; v++ {
		if float64(g.OutDegree(v)) > t {
			c++
		}
	}
	return c
}
