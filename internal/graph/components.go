package graph

// Connected-component utilities over the undirected view of a graph.
// SlashBurn's spoke detection and community numbering (§IV-A) are built on
// these, but they are generally useful substrate facilities.

// ConnectedComponents labels each vertex with a component ID in [0, k) over
// the undirected view of g (an edge in either direction connects). It
// returns the labels and component count. Labels are assigned in order of
// first discovery (ascending smallest vertex ID per component).
func (g *Graph) ConnectedComponents() ([]uint32, uint32) {
	return g.componentsFiltered(nil)
}

// ComponentsExcluding computes connected components of the subgraph induced
// by vertices where removed[v] == false. Removed vertices get label
// NoVertex. The undirected view is used.
func (g *Graph) ComponentsExcluding(removed []bool) ([]uint32, uint32) {
	return g.componentsFiltered(removed)
}

func (g *Graph) componentsFiltered(removed []bool) ([]uint32, uint32) {
	labels := make([]uint32, g.n)
	for i := range labels {
		labels[i] = NoVertex
	}
	// On a symmetric graph from Undirected the CSC aliases the CSR, so
	// the in-side scan would only repeat the out-side one.
	scanIn := !g.aliasesCSR()
	var next uint32
	queue := make([]uint32, 0, 1024)
	for start := uint32(0); start < g.n; start++ {
		if labels[start] != NoVertex || (removed != nil && removed[start]) {
			continue
		}
		labels[start] = next
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.OutNeighbors(v) {
				if labels[u] == NoVertex && (removed == nil || !removed[u]) {
					labels[u] = next
					queue = append(queue, u)
				}
			}
			if !scanIn {
				continue
			}
			for _, u := range g.InNeighbors(v) {
				if labels[u] == NoVertex && (removed == nil || !removed[u]) {
					labels[u] = next
					queue = append(queue, u)
				}
			}
		}
		next++
	}
	return labels, next
}

// ComponentSizes returns, for labels produced by ConnectedComponents, the
// number of vertices in each component.
func ComponentSizes(labels []uint32, k uint32) []uint32 {
	sizes := make([]uint32, k)
	for _, l := range labels {
		if l != NoVertex {
			sizes[l]++
		}
	}
	return sizes
}

// GiantComponent returns the label of the component with the largest number
// of edges (the paper's GCC is "the community with the largest number of
// edges", §IV-A), counting an edge as belonging to a component when both
// endpoints carry its label. Ties break to the smaller label. It returns
// NoVertex when k == 0.
func (g *Graph) GiantComponent(labels []uint32, k uint32) uint32 {
	if k == 0 {
		return NoVertex
	}
	edgeCount := make([]uint64, k)
	for v := uint32(0); v < g.n; v++ {
		lv := labels[v]
		if lv == NoVertex {
			continue
		}
		for _, u := range g.OutNeighbors(v) {
			if labels[u] == lv {
				edgeCount[lv]++
			}
		}
	}
	best := uint32(0)
	for l := uint32(1); l < k; l++ {
		if edgeCount[l] > edgeCount[best] {
			best = l
		}
	}
	return best
}
