package reorder

import (
	"reflect"
	"sort"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// communityGraph builds two dense 5-cliques joined by a single bridge.
func communityGraph() *graph.Graph {
	edges := []graph.Edge{}
	clique := func(lo uint32) {
		for i := lo; i < lo+5; i++ {
			for j := lo; j < lo+5; j++ {
				if i != j {
					edges = append(edges, graph.Edge{Src: i, Dst: j})
				}
			}
		}
	}
	clique(0)
	clique(5)
	edges = append(edges, graph.Edge{Src: 0, Dst: 5})
	return graph.FromEdges(10, edges)
}

func TestRabbitOrderClustersCommunities(t *testing.T) {
	g := communityGraph()
	perm := Perm(MustNew("ro"), g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each clique must occupy a contiguous ID block of width 4 (5 members
	// spread over at most 5 consecutive IDs).
	if s := spread(perm, []uint32{0, 1, 2, 3, 4}); s != 4 {
		t.Errorf("clique A spread = %d, want 4 (contiguous)", s)
	}
	if s := spread(perm, []uint32{5, 6, 7, 8, 9}); s != 4 {
		t.Errorf("clique B spread = %d, want 4 (contiguous)", s)
	}
}

func TestRabbitOrderReducesGapOnHostGraph(t *testing.T) {
	// On a host-structured web graph whose IDs have been scrambled,
	// Rabbit-Order must reduce the average neighbour gap versus the
	// scrambled order.
	base := gen.WebGraph(gen.DefaultWebGraph(2048, 6, 12))
	g := base.Relabel(Perm(Random{Seed: 3}, base))
	perm := Perm(MustNew("ro"), g)
	h := g.Relabel(perm)
	if gap(h) >= gap(g) {
		t.Errorf("Rabbit-Order gap %.1f not below scrambled %.1f", gap(h), gap(g))
	}
}

// gap is the average |src-dst| over all edges (the "average gap profile"
// summary used by related work).
func gap(g *graph.Graph) float64 {
	var total float64
	for _, e := range g.Edges() {
		d := float64(e.Src) - float64(e.Dst)
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total / float64(g.NumEdges())
}

func TestRabbitOrderEDRRestriction(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(1024, 6, 9))
	edr := MustNew("ro:edr=1-32")
	perm := Perm(edr, g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if edr.Name() != "RO[edr=1-32]" {
		t.Errorf("Name = %q", edr.Name())
	}
	// Out-of-range vertices keep relative order at the tail: collect them
	// and check their new IDs are increasing in old-ID order and above all
	// eligible vertices' IDs.
	und := g.Undirected()
	var maxEligible uint32
	var lastTail uint32
	firstTail := true
	tailStarted := false
	for v := uint32(0); v < g.NumVertices(); v++ {
		d := und.OutDegree(v)
		if d >= 1 && d <= 32 {
			if perm[v] > maxEligible {
				maxEligible = perm[v]
			}
		}
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		d := und.OutDegree(v)
		if d < 1 || d > 32 {
			tailStarted = true
			if perm[v] <= maxEligible {
				t.Fatalf("out-of-EDR vertex %d got ID %d below eligible max %d", v, perm[v], maxEligible)
			}
			if !firstTail && perm[v] <= lastTail {
				t.Fatal("out-of-EDR vertices not in relative order")
			}
			lastTail = perm[v]
			firstTail = false
		}
	}
	if !tailStarted {
		t.Skip("no out-of-EDR vertices in this graph")
	}
}

func TestRabbitOrderEDRFasterThanFull(t *testing.T) {
	// §VIII-B2: restricting to the EDR reduces preprocessing time.
	g := gen.WebGraph(gen.DefaultWebGraph(1<<13, 8, 15))
	full := Run(MustNew("ro"), g)
	edr := Run(MustNew("ro:edr=1-64"), g)
	if err := edr.Perm.Validate(); err != nil {
		t.Fatal(err)
	}
	// Allocation is the deterministic cost proxy; EDR must allocate less.
	if edr.AllocBytes >= full.AllocBytes {
		t.Errorf("EDR allocated %d >= full %d", edr.AllocBytes, full.AllocBytes)
	}
}

func TestRabbitOrderSingletonAndEmpty(t *testing.T) {
	for _, n := range []uint32{0, 1, 2} {
		g := graph.FromEdges(n, nil)
		perm := Perm(MustNew("ro"), g)
		if uint32(len(perm)) != n {
			t.Fatalf("n=%d: perm length %d", n, len(perm))
		}
		if err := perm.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRabbitOrderSelfLoopGraph(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 0}, {Src: 1, Dst: 2}})
	perm := Perm(MustNew("ro"), g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
}

// refRabbitOrder is Rabbit-Order with map-based community adjacency:
// adj[c] maps a neighbour vertex to the edge weight, each candidate scan
// sums weights per neighbour community in a map and sorts the candidates,
// and a merge adds cv's external weights into best's map. It returns the
// permutation and the top-level community sizes, and shares no code with
// RabbitOrder.Reorder.
func refRabbitOrder(g *graph.Graph, minDeg, maxDeg, maxSize uint32) (graph.Permutation, []uint32) {
	n := g.NumVertices()
	und := g.Undirected()
	restricted := minDeg != 0 || maxDeg != 0
	if maxDeg == 0 {
		maxDeg = ^uint32(0)
	}
	eligible := make([]bool, n)
	for v := uint32(0); v < n; v++ {
		d := und.OutDegree(v)
		eligible[v] = !restricted || (d >= minDeg && d <= maxDeg)
	}
	adj := make([]map[uint32]float64, n)
	str := make([]float64, n)
	var m2 float64
	for v := uint32(0); v < n; v++ {
		adj[v] = map[uint32]float64{}
		if !eligible[v] {
			continue
		}
		for _, u := range und.OutNeighbors(v) {
			if u != v && eligible[u] {
				adj[v][u]++
				str[v]++
				m2++
			}
		}
	}
	if m2 == 0 {
		m2 = 1
	}
	parent := make([]uint32, n)
	size := make([]uint32, n)
	children := make([][]uint32, n)
	for i := range parent {
		parent[i], size[i] = uint32(i), 1
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	visit := make([]uint32, n)
	for i := range visit {
		visit[i] = uint32(i)
	}
	sort.Slice(visit, func(i, j int) bool {
		a, b := visit[i], visit[j]
		if und.OutDegree(a) != und.OutDegree(b) {
			return und.OutDegree(a) < und.OutDegree(b)
		}
		return a < b
	})
	for _, v := range visit {
		if !eligible[v] || find(v) != v {
			continue
		}
		weights := map[uint32]float64{}
		for u, w := range adj[v] {
			if c := find(u); c != v {
				weights[c] += w
			}
		}
		var cands []uint32
		for c := range weights {
			cands = append(cands, c)
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		best, bestGain := uint32(0), 0.0
		for _, c := range cands {
			if maxSize > 0 && size[v]+size[c] > maxSize {
				continue
			}
			if gain := 2 * (weights[c]/m2 - (str[v]*str[c])/(m2*m2)); gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if bestGain == 0 {
			continue
		}
		for x, w := range adj[v] {
			if c := find(x); c != best && c != v {
				adj[best][x] += w
			}
		}
		delete(adj[best], v)
		adj[v] = nil
		str[best] += str[v]
		size[best] += size[v]
		parent[v] = best
		children[best] = append(children[best], v)
	}
	perm := make(graph.Permutation, n)
	assigned := make([]bool, n)
	var next uint32
	var sizes []uint32
	var preorder func(x uint32)
	preorder = func(x uint32) {
		assigned[x] = true
		perm[x] = next
		next++
		for _, c := range children[x] {
			preorder(c)
		}
	}
	for v := uint32(0); v < n; v++ {
		if eligible[v] && find(v) == v {
			sizes = append(sizes, size[v])
			preorder(v)
		}
	}
	for v := uint32(0); v < n; v++ {
		if !assigned[v] {
			perm[v] = next
			next++
		}
	}
	return perm, sizes
}

// TestRabbitOrderMatchesMapOracle: list-based adjacency with dense
// candidate counting must reproduce the map-based Rabbit-Order exactly —
// permutation and community sizes — on the plain, EDR and cache-aware
// variants.
func TestRabbitOrderMatchesMapOracle(t *testing.T) {
	variants := []struct {
		spec                    string
		minDeg, maxDeg, maxSize uint32
	}{
		{"ro", 0, 0, 0},
		{"ro:edr=1-4", 1, 4, 0},
		{"ro:edr=2-64", 2, 64, 0},
		{"ro:cachebytes=64", 0, 0, 8},
		{"ro:cachebytes=24", 0, 0, 3},
	}
	for name, g := range oracleGraphs() {
		for _, vr := range variants {
			ro := MustNew(vr.spec).(*RabbitOrder)
			got := Perm(ro, g)
			want, wantSizes := refRabbitOrder(g, vr.minDeg, vr.maxDeg, vr.maxSize)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: perm %v; oracle %v", name, ro.Name(), got, want)
			}
			if sizes := ro.CommunitySizes(); !reflect.DeepEqual(sizes, wantSizes) {
				t.Fatalf("%s %s: community sizes %v; oracle %v", name, ro.Name(), sizes, wantSizes)
			}
		}
	}
}
