package reorder

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// adjustOne applies a single ±1 change to v as a batch of its own.
func adjustOne(h *unitHeap, v uint32, d int32) {
	h.touch(v, d)
	h.flush()
}

func TestUnitHeapBasics(t *testing.T) {
	h := newUnitHeap(4)
	// Nothing extractable while all keys are 0 — in particular vertex 0
	// must not be spuriously reported (regression: zero-valued bucket
	// heads used to alias vertex 0).
	if v, ok := h.extractMax(); ok {
		t.Fatalf("empty heap extracted %d", v)
	}
	adjustOne(h, 2, +1)
	adjustOne(h, 2, +1) // key 2
	adjustOne(h, 1, +1) // key 1
	if v, ok := h.extractMax(); !ok || v != 2 {
		t.Fatalf("extractMax = %d,%v; want 2", v, ok)
	}
	if v, ok := h.extractMax(); !ok || v != 1 {
		t.Fatalf("extractMax = %d,%v; want 1", v, ok)
	}
	if _, ok := h.extractMax(); ok {
		t.Fatal("heap should be empty")
	}
	// Adjustments to removed vertices are ignored.
	adjustOne(h, 2, +1)
	if _, ok := h.extractMax(); ok {
		t.Fatal("removed vertex resurrected")
	}
	// Decrement back to zero keeps the vertex alive but unextractable.
	adjustOne(h, 3, +1)
	adjustOne(h, 3, -1)
	if h.removed(3) {
		t.Fatal("vertex 3 wrongly removed")
	}
	if _, ok := h.extractMax(); ok {
		t.Fatal("zero-key vertex extracted")
	}
	h.remove(3)
	if !h.removed(3) {
		t.Fatal("remove failed")
	}
}

func TestUnitHeapBatchOrder(t *testing.T) {
	// Within one batch the touched vertices head their final bucket by
	// last touch, most recent first; a net-zero touch still moves a
	// vertex to the head; untouched vertices keep their order behind.
	h := newUnitHeap(5)
	for _, v := range []uint32{0, 1, 2} {
		h.touch(v, +1)
	}
	h.flush() // bucket 1: 2 1 0
	h.touch(3, +1)
	h.touch(0, +1)
	h.touch(0, -1) // net zero, last touch after 3
	h.touch(4, +1)
	h.touch(3, -1)
	h.touch(3, +1) // 3 last touched after 4
	h.flush()
	if got, want := fmt.Sprint(uhBuckets(h)), "[[3 4 0 2 1]]"; got != want {
		t.Fatalf("buckets = %s, want %s", got, want)
	}
}

// uhBuckets lists h's non-zero buckets 1..max, each from head to tail.
func uhBuckets(h *unitHeap) [][]uint32 {
	var out [][]uint32
	for b := 1; b < len(h.head); b++ {
		var list []uint32
		for v := h.head[b]; v != uhNil; v = h.next[v] {
			list = append(list, uint32(v))
		}
		out = append(out, list)
	}
	return trimEmpty(out)
}

func trimEmpty(bs [][]uint32) [][]uint32 {
	for len(bs) > 0 && len(bs[len(bs)-1]) == 0 {
		bs = bs[:len(bs)-1]
	}
	return bs
}

// refUnitHeap is the per-adjust unit heap the batched one must reproduce:
// every ±1 unlinks the vertex, changes its key and pushes it to the head
// of its new bucket when the key is positive. It shares no code with
// unitHeap and serves only as the oracle.
type refUnitHeap struct {
	key, prev, next []int32
	head            []int32
	maxKey          int32
}

func newRefUnitHeap(n uint32) *refUnitHeap {
	h := &refUnitHeap{key: make([]int32, n), prev: make([]int32, n), next: make([]int32, n), head: []int32{-1, -1}}
	for i := range h.prev {
		h.prev[i], h.next[i] = -1, -1
	}
	return h
}

func (h *refUnitHeap) unlink(v uint32) {
	k := h.key[v]
	if k <= 0 {
		return
	}
	p, nx := h.prev[v], h.next[v]
	if p != -1 {
		h.next[p] = nx
	} else {
		h.head[k] = nx
	}
	if nx != -1 {
		h.prev[nx] = p
	}
	h.prev[v], h.next[v] = -1, -1
}

func (h *refUnitHeap) adjust(v uint32, d int32) {
	k := h.key[v]
	if k < 0 {
		return
	}
	h.unlink(v)
	k += d
	h.key[v] = k
	if k > 0 {
		for int(k) >= len(h.head) {
			h.head = append(h.head, -1)
		}
		old := h.head[k]
		h.head[k] = int32(v)
		h.prev[v], h.next[v] = -1, old
		if old != -1 {
			h.prev[old] = int32(v)
		}
		if k > h.maxKey {
			h.maxKey = k
		}
	}
}

func (h *refUnitHeap) remove(v uint32) {
	if h.key[v] < 0 {
		return
	}
	h.unlink(v)
	h.key[v] = -1
}

func (h *refUnitHeap) extractMax() (uint32, bool) {
	for h.maxKey >= 1 {
		if v := h.head[h.maxKey]; v != -1 {
			h.unlink(uint32(v))
			h.key[v] = -1
			return uint32(v), true
		}
		h.maxKey--
	}
	return 0, false
}

func (h *refUnitHeap) buckets() [][]uint32 {
	var out [][]uint32
	for b := 1; b < len(h.head); b++ {
		var list []uint32
		for v := h.head[b]; v != -1; v = h.next[v] {
			list = append(list, uint32(v))
		}
		out = append(out, list)
	}
	return trimEmpty(out)
}

// TestUnitHeapMatchesPerAdjustOracle drives the batched heap and the
// per-adjust oracle through the same random operations — batches of ±1
// touches with repeats, net-zero pairs and keys crossing through zero,
// interleaved with remove and extractMax — and requires identical bucket
// lists after every batch and identical extractMax results. As in
// GOrder, no touch takes a live key below zero.
func TestUnitHeapMatchesPerAdjustOracle(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := gen.NewRNG(seed)
		n := 1 + rng.Uint32n(40)
		h, ref := newUnitHeap(n), newRefUnitHeap(n)
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 7:
				// A few hot vertices make repeats and crossings common.
				hot := 1 + rng.Uint32n(n)
				for i, touches := 0, rng.Intn(3*int(n)); i < touches; i++ {
					v := rng.Uint32n(hot)
					d := int32(1)
					if ref.key[v] > 0 && rng.Intn(2) == 0 {
						d = -1
					}
					h.touch(v, d)
					ref.adjust(v, d)
					if rng.Intn(5) == 0 {
						// Net-zero pair on the same vertex.
						h.touch(v, -d)
						ref.adjust(v, -d)
					}
				}
				h.flush()
			case op < 8:
				v := rng.Uint32n(n)
				h.remove(v)
				ref.remove(v)
			default:
				v, ok := h.extractMax()
				rv, rok := ref.extractMax()
				if v != rv || ok != rok {
					t.Fatalf("seed %d step %d: extractMax = %d,%v; oracle %d,%v", seed, step, v, ok, rv, rok)
				}
			}
			if got, want := uhBuckets(h), ref.buckets(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: buckets %v; oracle %v", seed, step, got, want)
			}
			for v := uint32(0); v < n; v++ {
				if h.node[v].key != ref.key[v] {
					t.Fatalf("seed %d step %d: key[%d] = %d; oracle %d", seed, step, v, h.node[v].key, ref.key[v])
				}
			}
		}
		// Drain: both heaps must extract the same sequence to the end.
		for {
			v, ok := h.extractMax()
			rv, rok := ref.extractMax()
			if v != rv || ok != rok {
				t.Fatalf("seed %d drain: extractMax = %d,%v; oracle %d,%v", seed, v, ok, rv, rok)
			}
			if !ok {
				break
			}
		}
	}
}

func TestGOrderStartsAtMaxDegree(t *testing.T) {
	g := gen.Star(100)
	perm := Perm(MustNew("go"), g)
	if perm[0] != 0 {
		t.Errorf("max-degree vertex got ID %d, want 0", perm[0])
	}
}

func TestGOrderGroupsSiblings(t *testing.T) {
	// Two disjoint "families": vertices sharing an in-neighbour should be
	// placed near each other. Parent 0 -> {2,3,4}; parent 1 -> {5,6,7}.
	edges := []graph.Edge{
		{Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
		{Src: 1, Dst: 5}, {Src: 1, Dst: 6}, {Src: 1, Dst: 7},
	}
	g := graph.FromEdges(8, edges)
	perm := Perm(MustNew("go"), g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	spreadA := spread(perm, []uint32{2, 3, 4})
	spreadB := spread(perm, []uint32{5, 6, 7})
	// Each sibling set spans at most 4 consecutive-ish IDs (the parent may
	// interleave), far tighter than a random placement over 8 IDs.
	if spreadA > 3 || spreadB > 3 {
		t.Errorf("sibling sets scattered: spreads %d, %d (perm %v)", spreadA, spreadB, perm)
	}
}

// spread returns max(newID) - min(newID) over the given old IDs.
func spread(perm graph.Permutation, vs []uint32) uint32 {
	lo, hi := perm[vs[0]], perm[vs[0]]
	for _, v := range vs[1:] {
		if perm[v] < lo {
			lo = perm[v]
		}
		if perm[v] > hi {
			hi = perm[v]
		}
	}
	return hi - lo
}

func TestGOrderHandlesDisconnected(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 3, Dst: 4}})
	perm := Perm(MustNew("go"), g)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGOrderWindowConfigurable(t *testing.T) {
	g := gen.ErdosRenyi(200, 1000, 3)
	a := Perm(&GOrder{Window: 3}, g)
	b := Perm(&GOrder{Window: 8}, g)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Zero window falls back to the default without crashing.
	c := Perm(&GOrder{}, g)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGOrderImprovesTemporalProximity(t *testing.T) {
	// On a community-structured web graph, consecutive placed vertices
	// should share in-neighbours more often than under a random order.
	g := gen.WebGraph(gen.DefaultWebGraph(1024, 6, 8))
	score := func(perm graph.Permutation) int {
		inv := perm.Inverse()
		total := 0
		for i := 1; i < len(inv); i++ {
			total += commonInNeighbors(g, inv[i-1], inv[i])
		}
		return total
	}
	gorder := score(Perm(MustNew("go"), g))
	random := score(Perm(Random{Seed: 4}, g))
	if gorder <= random {
		t.Errorf("GOrder adjacency sharing %d not above random %d", gorder, random)
	}
}

func commonInNeighbors(g *graph.Graph, a, b uint32) int {
	na, nb := g.InNeighbors(a), g.InNeighbors(b)
	i, j, c := 0, 0, 0
	for i < len(na) && j < len(nb) {
		switch {
		case na[i] < nb[j]:
			i++
		case na[i] > nb[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// oracleGraphs returns the graphs the heavy-RA oracle tests compare on:
// random multigraphs with self-loops, duplicate edges, isolated vertices
// and a few hot vertices, plus small instances of the suite's families.
func oracleGraphs() map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"social": gen.SocialNetwork(8, 8, 5),
		"web":    gen.WebGraph(gen.DefaultWebGraph(1<<8, 8, 6)),
		"er":     gen.ErdosRenyi(300, 1500, 7),
		"star":   gen.Star(40),
		"empty":  graph.FromEdges(5, nil),
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := gen.NewRNG(seed)
		n := 1 + rng.Uint32n(120)
		hot := 1 + rng.Uint32n(n)
		edges := make([]graph.Edge, rng.Intn(6*int(n)+1))
		for i := range edges {
			src, dst := rng.Uint32n(n), rng.Uint32n(n)
			if rng.Intn(3) == 0 {
				dst = rng.Uint32n(hot)
			}
			edges[i] = graph.Edge{Src: src, Dst: dst}
		}
		gs[fmt.Sprintf("rand%d", seed)] = graph.FromEdges(n, edges)
	}
	return gs
}

// refGOrder is GOrder without sibling-row pruning: every sibling scan
// walks u's whole out-row, skipping only v, and every touch is applied on
// its own to the per-adjust oracle heap. It shares no code with
// GOrder.Reorder.
func refGOrder(g *graph.Graph, w int) graph.Permutation {
	n := g.NumVertices()
	h := newRefUnitHeap(n)
	seeds := make([]uint32, n)
	for i := range seeds {
		seeds[i] = uint32(i)
	}
	deg := func(v uint32) int { return len(g.OutNeighbors(v)) + len(g.InNeighbors(v)) }
	sort.Slice(seeds, func(i, j int) bool {
		a, b := seeds[i], seeds[j]
		if deg(a) != deg(b) {
			return deg(a) > deg(b)
		}
		return a < b
	})
	adjust := func(v uint32, d int32) {
		for _, u := range g.OutNeighbors(v) {
			h.adjust(u, d)
		}
		for _, u := range g.InNeighbors(v) {
			h.adjust(u, d)
			for _, s := range g.OutNeighbors(u) {
				if s != v {
					h.adjust(s, d)
				}
			}
		}
	}
	perm := make(graph.Permutation, n)
	var window []uint32
	next := 0
	for i := uint32(0); i < n; i++ {
		v, ok := h.extractMax()
		if !ok {
			for h.key[seeds[next]] < 0 {
				next++
			}
			v = seeds[next]
		}
		h.remove(v)
		perm[v] = i
		if len(window) == w {
			adjust(window[0], -1)
			window = window[1:]
		}
		window = append(window, v)
		adjust(v, +1)
	}
	return perm
}

// TestGOrderMatchesUnprunedOracle: dropping placed vertices from the
// sibling rows removes only no-op touches, so the permutation must equal
// the unpruned, per-adjust GOrder's for every window size.
func TestGOrderMatchesUnprunedOracle(t *testing.T) {
	for name, g := range oracleGraphs() {
		for _, w := range []int{1, 3, 5, 8} {
			got := Perm(&GOrder{Window: w}, g)
			if want := refGOrder(g, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s window %d: perm %v; oracle %v", name, w, got, want)
			}
		}
	}
}
