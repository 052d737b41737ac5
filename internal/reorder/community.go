package reorder

import (
	"context"
	"slices"
	"sort"

	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
)

// Communities is a partition of a graph's vertices into communities:
// Membership[v] is the community of vertex v, with IDs compact in
// [0, Count). Detectors normalize IDs so that communities are numbered by
// their smallest member vertex, which makes the partition — not just the
// grouping — deterministic.
type Communities struct {
	Membership []uint32
	Count      int
}

// Groups expands the membership into explicit per-community vertex lists
// (ascending within each community).
func (c Communities) Groups() [][]uint32 {
	groups := make([][]uint32, c.Count)
	counts := make([]int, c.Count)
	for _, cm := range c.Membership {
		counts[cm]++
	}
	for i, n := range counts {
		groups[i] = make([]uint32, 0, n)
	}
	for v, cm := range c.Membership {
		groups[cm] = append(groups[cm], uint32(v))
	}
	return groups
}

// compactBySmallestMember renumbers community labels so that community 0
// is the one containing the smallest vertex ID, community 1 the one
// containing the next-smallest vertex not yet covered, and so on. Labels
// must lie in [0, len(membership)) — every detector labels by a vertex or
// node ID.
func compactBySmallestMember(membership []uint32) Communities {
	// remap[label] is the label's compact ID plus one; 0 = not yet seen.
	remap := make([]uint32, len(membership))
	next := uint32(0)
	out := make([]uint32, len(membership))
	for v, label := range membership {
		id := remap[label]
		if id == 0 {
			next++
			id = next
			remap[label] = id
		}
		out[v] = id - 1
	}
	return Communities{Membership: out, Count: int(next)}
}

// SingleCommunity assigns every vertex to one community — the "none"
// detector. With it, a per-community meta-algorithm degenerates to
// running one sub-algorithm globally, which is what the brew differential
// test exploits.
func SingleCommunity(g *graph.Graph) Communities {
	n := g.NumVertices()
	m := make([]uint32, n)
	count := 0
	if n > 0 {
		count = 1
	}
	return Communities{Membership: m, Count: count}
}

// wgraph is the weighted multigraph a Louvain level works on. Parallel
// edges accumulated by aggregation are pre-summed, self-loops (internal
// community weight) live in self.
type wgraph struct {
	off  []uint32
	nbr  []uint32
	wgt  []float64
	self []float64
	str  []float64 // weighted degree: sum of incident weights + 2*self
	m2   float64   // total weight: sum over str
}

func (w *wgraph) numNodes() uint32 { return uint32(len(w.off) - 1) }

func (w *wgraph) neighbors(v uint32) ([]uint32, []float64) {
	return w.nbr[w.off[v]:w.off[v+1]], w.wgt[w.off[v]:w.off[v+1]]
}

// levelGraph builds the level-0 weighted view of g: the undirected simple
// view with unit weights (each undirected edge contributing 1 in both
// directions), self-loops dropped.
func levelGraph(g *graph.Graph) *wgraph {
	und := g.Undirected()
	n := und.NumVertices()
	w := &wgraph{
		off:  make([]uint32, n+1),
		self: make([]float64, n),
		str:  make([]float64, n),
	}
	for v := uint32(0); v < n; v++ {
		cnt := uint32(0)
		for _, u := range und.OutNeighbors(v) {
			if u != v {
				cnt++
			}
		}
		w.off[v+1] = w.off[v] + cnt
	}
	w.nbr = make([]uint32, w.off[n])
	w.wgt = make([]float64, w.off[n])
	pos := append([]uint32(nil), w.off[:n]...)
	for v := uint32(0); v < n; v++ {
		for _, u := range und.OutNeighbors(v) {
			if u == v {
				continue
			}
			w.nbr[pos[v]] = u
			w.wgt[pos[v]] = 1
			pos[v]++
		}
	}
	for v := uint32(0); v < n; v++ {
		for _, x := range w.wgt[w.off[v]:w.off[v+1]] {
			w.str[v] += x
		}
		w.str[v] += 2 * w.self[v]
		w.m2 += w.str[v]
	}
	return w
}

// localMove runs Louvain local-moving passes over w until a pass makes no
// move (or the poller cancels). comm is updated in place; visit order is a
// seeded shuffle, re-used across passes so a fixed seed fixes the output
// bit-for-bit. Tie-breaking is by smallest community ID. Returns the number
// of moves made in total and the first poll error, if any.
func localMove(w *wgraph, comm []uint32, resolution float64, rng *splitmix, poll *runctl.Poller) (int, error) {
	n := w.numNodes()
	if n == 0 {
		return 0, nil
	}
	tot := make([]float64, n)
	for v := uint32(0); v < n; v++ {
		tot[comm[v]] += w.str[v]
	}
	visit := make([]uint32, n)
	for i := range visit {
		visit[i] = uint32(i)
	}
	for i := len(visit) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		visit[i], visit[j] = visit[j], visit[i]
	}

	m2 := w.m2
	if m2 == 0 {
		return 0, nil
	}
	// Dense scratch over community IDs: wTo[c] is the weight from the
	// current vertex to community c, seen marks the communities in
	// touched, and only the touched entries are reset per vertex. Weights
	// add up in neighbour order, as they always have, so every float sum
	// is the same whatever the scratch layout.
	wTo := make([]float64, n)
	seen := make([]bool, n)
	touched := make([]uint32, 0, 64)
	totalMoves := 0
	for pass := 0; pass < 32; pass++ {
		moves := 0
		for _, v := range visit {
			if err := poll.Check(); err != nil {
				return totalMoves, err
			}
			old := comm[v]
			tot[old] -= w.str[v]
			for _, c := range touched {
				wTo[c] = 0
				seen[c] = false
			}
			touched = touched[:0]
			nbrs, wgts := w.neighbors(v)
			for i, u := range nbrs {
				c := comm[u]
				if !seen[c] {
					seen[c] = true
					touched = append(touched, c)
				}
				wTo[c] += wgts[i]
			}
			// Deterministic candidate order: communities ascending. The
			// vertex's own (possibly now empty) community is always a
			// candidate with gain w_in - γ·k·tot/m2 like any other; it
			// is the incumbent, so staying put wins a tie at the best
			// gain, and otherwise the smallest ID with the best gain
			// wins — the tie-break is purely structural.
			if !seen[old] {
				seen[old] = true
				touched = append(touched, old)
			}
			slices.Sort(touched)
			best := old
			bestGain := wTo[old] - resolution*w.str[v]*tot[old]/m2
			for _, c := range touched {
				gain := wTo[c] - resolution*w.str[v]*tot[c]/m2
				if gain > bestGain {
					bestGain = gain
					best = c
				}
			}
			comm[v] = best
			tot[best] += w.str[v]
			if best != old {
				moves++
			}
		}
		totalMoves += moves
		if moves == 0 {
			break
		}
	}
	return totalMoves, nil
}

// aggregate collapses each community of w into one super-node and returns
// the next-level graph plus the node→super-node map (compact, ascending by
// smallest member).
func aggregate(w *wgraph, comm []uint32) (*wgraph, []uint32) {
	n := w.numNodes()
	compact := compactBySmallestMember(comm)
	sup := compact.Membership
	sn := uint32(compact.Count)

	// Accumulate inter-community weights and internal (self) weight.
	maps := make([]map[uint32]float64, sn)
	self := make([]float64, sn)
	for v := uint32(0); v < n; v++ {
		cv := sup[v]
		self[cv] += w.self[v]
		nbrs, wgts := w.neighbors(v)
		for i, u := range nbrs {
			cu := sup[u]
			if cu == cv {
				// Each internal edge is seen from both endpoints; halve.
				self[cv] += wgts[i] / 2
				continue
			}
			if maps[cv] == nil {
				maps[cv] = make(map[uint32]float64)
			}
			maps[cv][cu] += wgts[i]
		}
	}
	nw := &wgraph{
		off:  make([]uint32, sn+1),
		self: self,
		str:  make([]float64, sn),
	}
	for c := uint32(0); c < sn; c++ {
		nw.off[c+1] = nw.off[c] + uint32(len(maps[c]))
	}
	nw.nbr = make([]uint32, nw.off[sn])
	nw.wgt = make([]float64, nw.off[sn])
	for c := uint32(0); c < sn; c++ {
		keys := make([]uint32, 0, len(maps[c]))
		for u := range maps[c] {
			keys = append(keys, u)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		p := nw.off[c]
		for _, u := range keys {
			nw.nbr[p] = u
			nw.wgt[p] = maps[c][u]
			p++
		}
	}
	for c := uint32(0); c < sn; c++ {
		for _, x := range nw.wgt[nw.off[c]:nw.off[c+1]] {
			nw.str[c] += x
		}
		nw.str[c] += 2 * nw.self[c]
		nw.m2 += nw.str[c]
	}
	return nw, sup
}

// DetectLouvain runs Louvain-style community detection (Blondel et al.
// 2008): repeated local-moving passes interleaved with graph aggregation,
// maximizing modularity at the given resolution (1.0 = classic; higher
// favours smaller communities). The visit order is a seeded shuffle and
// all tie-breaks are by smallest community ID, so a fixed seed fixes the
// output bit-for-bit.
//
// On cancellation the partition built so far is still compacted and
// returned alongside ctx's error — every vertex is assigned exactly once
// regardless.
func DetectLouvain(ctx context.Context, g *graph.Graph, resolution float64, seed uint64, pollEvery int) (Communities, error) {
	n := g.NumVertices()
	if n == 0 {
		return Communities{Membership: []uint32{}}, nil
	}
	if resolution <= 0 {
		resolution = 1
	}
	poll := runctl.NewPoller(ctx, pollEvery)
	rng := splitmix{s: seed}

	w := levelGraph(g)
	// membership[v] = current community of original vertex v.
	membership := make([]uint32, n)
	for v := range membership {
		membership[v] = uint32(v)
	}
	var pollErr error
	for level := 0; level < 16; level++ {
		comm := make([]uint32, w.numNodes())
		for i := range comm {
			comm[i] = uint32(i)
		}
		moves, err := localMove(w, comm, resolution, &rng, poll)
		if err != nil {
			pollErr = err
		}
		nw, sup := aggregate(w, comm)
		for v := range membership {
			membership[v] = sup[membership[v]]
		}
		if pollErr != nil || moves == 0 || nw.numNodes() == w.numNodes() {
			break
		}
		w = nw
	}
	return compactBySmallestMember(membership), pollErr
}

// DetectLabelProp runs asynchronous label propagation (Raghavan et al.
// 2007): every vertex repeatedly adopts the label most frequent among its
// undirected neighbours, ties broken by smallest label, in a seeded
// shuffled visit order, until a full pass changes nothing. Cheaper than
// Louvain and resolution-free; communities are whatever labels survive.
//
// Same determinism and cancellation contract as DetectLouvain.
func DetectLabelProp(ctx context.Context, g *graph.Graph, seed uint64, pollEvery int) (Communities, error) {
	n := g.NumVertices()
	if n == 0 {
		return Communities{Membership: []uint32{}}, nil
	}
	poll := runctl.NewPoller(ctx, pollEvery)
	rng := splitmix{s: seed}
	und := g.Undirected()

	label := make([]uint32, n)
	for v := range label {
		label[v] = uint32(v)
	}
	visit := make([]uint32, n)
	for i := range visit {
		visit[i] = uint32(i)
	}
	for i := len(visit) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		visit[i], visit[j] = visit[j], visit[i]
	}

	// Dense per-label counts; only the touched labels are reset per
	// vertex. The winner is the (count desc, label asc) maximum over the
	// touched labels and the vertex's own, which no visit order changes.
	counts := make([]uint32, n)
	touched := make([]uint32, 0, 64)
	var pollErr error
	for pass := 0; pass < 32 && pollErr == nil; pass++ {
		changed := 0
		for _, v := range visit {
			if pollErr = poll.Check(); pollErr != nil {
				break
			}
			nbrs := und.OutNeighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			for _, l := range touched {
				counts[l] = 0
			}
			touched = touched[:0]
			for _, u := range nbrs {
				if u != v {
					l := label[u]
					if counts[l] == 0 {
						touched = append(touched, l)
					}
					counts[l]++
				}
			}
			if len(touched) == 0 {
				continue
			}
			best := label[v]
			bestCount := counts[best] // 0 if own label absent
			for _, l := range touched {
				if c := counts[l]; c > bestCount || (c == bestCount && l < best) {
					best, bestCount = l, c
				}
			}
			if best != label[v] {
				label[v] = best
				changed++
			}
		}
		if changed == 0 {
			break
		}
	}
	return compactBySmallestMember(label), pollErr
}
