package reorder

import (
	"context"
	"strconv"

	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
)

// GOrder implements the GOrder reordering (Wei, Yu, Lu & Lin, SIGMOD'16)
// as the paper describes it (§IV-C): vertices are placed one at a time;
// the next vertex is the one with the maximum score against a sliding
// window of the last W placed vertices, where the score between u and v is
//
//	S(u,v) = Ss(u,v) + Sn(u,v)
//
// with Ss the number of common in-neighbours (sibling score) and Sn the
// number of direct edges between u and v (neighbourhood score). Placement
// starts from the vertex with the maximum degree. The paper uses the
// default window size 5.
//
// Scores change by ±1 as vertices enter and leave the window, so the
// priority queue is GOrder's "unit heap": one doubly-linked bucket list
// per score value with O(1) increment, decrement and extract-max. The
// total work is O(Σ_u d_out(u)·d_in(u)) score updates — inherently heavy
// on hubby graphs, which is exactly the preprocessing cost the paper's
// Table II shows for GOrder.
type GOrder struct {
	// Window is the sliding-window size (default 5).
	Window int
	// PollEvery is the cooperative-cancellation granularity of Reorder,
	// in vertex placements (0 = runctl.DefaultPollInterval).
	PollEvery int
}

func init() {
	MustRegister(Registration{
		Name:        "go",
		Aliases:     []string{"gorder"},
		Description: "GOrder: sliding-window sibling/neighbour score maximization (SIGMOD'16)",
		Class:       ClassHeavy,
		Accepts:     []string{OptWindow},
		New: func(s Spec) (Algorithm, error) {
			w, err := s.intParam(OptWindow, 5, 1)
			if err != nil {
				return nil, err
			}
			return &GOrder{Window: w}, nil
		},
	})
}

// effectiveWindow maps a configured GOrder window to the one used:
// values below 1 select the paper's default of 5.
func effectiveWindow(w int) int {
	if w < 1 {
		return 5
	}
	return w
}

// Name implements Algorithm.
func (o *GOrder) Name() string {
	return label("GO", nameParam{OptWindow, strconv.Itoa(effectiveWindow(o.Window)), "5"})
}

// Reorder implements Algorithm: the placement loop polls ctx every
// PollEvery placements. On cancellation the not-yet-placed vertices keep
// their original relative order after the placed prefix, so the partial
// permutation is still a valid relabeling. GOrder's configuration is
// read-only during a run, so one instance may reorder concurrently.
func (o *GOrder) Reorder(ctx context.Context, g *graph.Graph) (graph.Permutation, error) {
	w := effectiveWindow(o.Window)
	n := g.NumVertices()
	order := make([]uint32, 0, n)
	if n == 0 {
		return orderToPerm(order), nil
	}
	poll := runctl.NewPoller(ctx, o.PollEvery)

	h := newUnitHeap(n)

	// Seed order: by descending total degree; used to start and to re-seed
	// when the frontier empties (disconnected graphs).
	seeds := graph.VerticesByDegreeDesc(g.TotalDegrees())
	nextSeed := 0

	window := make([]uint32, 0, w)

	// sib is a private copy of the CSR edges (the graph's arrays are
	// shared); row u keeps only its first live[u] entries.
	off := g.OutOffsets()
	sib := append([]uint32(nil), g.OutEdges()...)
	live := make([]uint32, n)
	for u := range live {
		live[u] = uint32(off[u+1] - off[u])
	}

	// adjustFor applies d = ±1 to the scores of all unplaced vertices
	// whose score against vertex v changes when v enters/leaves the
	// window: out- and in-neighbours of v (Sn), and out-neighbours of v's
	// in-neighbours (Ss — they share that in-neighbour with v). A touch on
	// a placed vertex is a no-op, so the sibling scan filters placed
	// vertices out of u's row in place, keeping the survivors' order: the
	// touches that take effect, and their order, are unchanged. v itself
	// is placed before its first adjustFor, so it is never a sibling.
	adjustFor := func(v uint32, d int32) {
		for _, u := range g.OutNeighbors(v) {
			h.touch(u, d)
		}
		for _, u := range g.InNeighbors(v) {
			h.touch(u, d)
			row := sib[off[u] : off[u]+uint64(live[u])]
			k := 0
			for _, s := range row {
				if h.touch(s, d) {
					row[k] = s
					k++
				}
			}
			live[u] = uint32(k)
		}
	}

	// place applies one window step as a single heap batch: the oldest
	// vertex leaves, v enters, then the pending score changes flush.
	place := func(v uint32) {
		h.remove(v)
		order = append(order, v)
		if len(window) == w {
			oldest := window[0]
			window = window[1:]
			adjustFor(oldest, -1)
		}
		window = append(window, v)
		adjustFor(v, +1)
		h.flush()
	}

	for uint32(len(order)) < n {
		if err := poll.Check(); err != nil {
			// Complete the permutation with the unplaced vertices in
			// original order so callers receive a usable partial result.
			placed := make([]bool, n)
			for _, v := range order {
				placed[v] = true
			}
			for v := uint32(0); v < n; v++ {
				if !placed[v] {
					order = append(order, v)
				}
			}
			return orderToPerm(order), err
		}
		v, ok := h.extractMax()
		if !ok {
			// Frontier exhausted: re-seed with the highest-degree
			// unplaced vertex.
			for h.removed(seeds[nextSeed]) {
				nextSeed++
			}
			v = seeds[nextSeed]
		}
		place(v)
	}
	return orderToPerm(order), nil
}

// unitHeap is a bucket priority queue over vertices with small integer
// keys that change by ±1: bucket b holds all vertices with key b as a
// doubly-linked list, most recently (re)inserted first.
//
// Key changes arrive in batches, one per window step: touch only records
// a pending ±1, and flush applies the batch with one relink per distinct
// touched vertex. The result is exactly the heap that applying every
// touch on its own (unlink, change the key, push to the head of the new
// bucket when positive) would leave, provided no touch takes a key below
// zero part-way through a batch, which GOrder's leave-before-enter window
// step guarantees:
//   - a touched vertex whose final key is positive was last pushed at its
//     last touch, so touched vertices head their final buckets ordered by
//     last touch, most recent first — flush pushes them in last-touch order;
//   - unlinking a vertex leaves the others' relative order alone, so
//     untouched vertices keep theirs, behind every pushed one;
//   - maxKey stays an upper bound on the largest non-empty bucket, which
//     is all extractMax needs.
type unitHeap struct {
	node   []uhNode
	next   []int32  // bucket list successor; uhNil terminates
	head   []int32  // head[b] = first vertex with key b, or uhNil
	maxKey int32    // upper bound on the largest non-empty bucket ≥ 1
	log    []uint32 // the open batch's touched vertices, one entry per touch
}

// uhNode is the per-vertex heap state a touch reads and writes, kept in
// one record so that a touch is one random memory access.
type uhNode struct {
	key   int32  // current bucket; -1 once removed
	delta int32  // pending key change of the open batch
	last  uint32 // log position of the vertex's latest pending touch
	prev  int32  // bucket list predecessor; uhNil at the head
}

const uhNil = int32(-1)

func newUnitHeap(n uint32) *unitHeap {
	h := &unitHeap{
		node: make([]uhNode, n),
		next: make([]int32, n),
		head: []int32{uhNil, uhNil},
	}
	// All vertices start in bucket 0; bucket 0 is never extracted (only
	// positive scores are frontier candidates), so the zero bucket list
	// is left unmaterialized: vertices with key 0 are tracked lazily.
	for i := range h.node {
		h.node[i].prev = uhNil
		h.next[i] = uhNil
	}
	return h
}

// removed reports whether v has been extracted/removed.
func (h *unitHeap) removed(v uint32) bool { return h.node[v].key < 0 }

// touch records a pending change d (±1) to v's key, applied by the next
// flush, and reports whether v is still in the heap. Removed vertices are
// ignored.
func (h *unitHeap) touch(v uint32, d int32) bool {
	nd := &h.node[v]
	if nd.key < 0 {
		return false
	}
	nd.delta += d
	nd.last = uint32(len(h.log))
	h.log = append(h.log, v)
	return true
}

// flush applies the pending batch: at each vertex's last touch in the log
// it unlinks the vertex and pushes it to the head of its new bucket if the
// new key is positive — net-zero vertices move to the head too.
func (h *unitHeap) flush() {
	for i, v := range h.log {
		nd := &h.node[v]
		if nd.last != uint32(i) {
			continue
		}
		h.unlink(v)
		nd.key += nd.delta
		nd.delta = 0
		if nd.key > 0 {
			h.push(v, nd.key)
		}
	}
	h.log = h.log[:0]
}

// unlink removes v from its current bucket list (no-op for bucket 0,
// which is unmaterialized).
func (h *unitHeap) unlink(v uint32) {
	nd := &h.node[v]
	if nd.key <= 0 {
		return
	}
	p, nx := nd.prev, h.next[v]
	if p != uhNil {
		h.next[p] = nx
	} else {
		h.head[nd.key] = nx
	}
	if nx != uhNil {
		h.node[nx].prev = p
	}
	nd.prev = uhNil
	h.next[v] = uhNil
}

// push adds v to the head of bucket k (k ≥ 1).
func (h *unitHeap) push(v uint32, k int32) {
	for int(k) >= len(h.head) {
		h.head = append(h.head, uhNil)
	}
	old := h.head[k]
	h.head[k] = int32(v)
	h.node[v].prev = uhNil
	h.next[v] = old
	if old != uhNil {
		h.node[old].prev = int32(v)
	}
	if k > h.maxKey {
		h.maxKey = k
	}
}

// remove extracts v regardless of its key (used when placing a vertex).
// It must not be called with a batch pending.
func (h *unitHeap) remove(v uint32) {
	if h.node[v].key < 0 {
		return
	}
	h.unlink(v)
	h.node[v].key = -1
}

// extractMax removes and returns a vertex with the maximum positive key.
// It must not be called with a batch pending.
func (h *unitHeap) extractMax() (uint32, bool) {
	for h.maxKey >= 1 {
		if v := h.head[h.maxKey]; v != uhNil {
			u := uint32(v)
			h.unlink(u)
			h.node[u].key = -1
			return u, true
		}
		h.maxKey--
	}
	return 0, false
}
