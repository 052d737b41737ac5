package core

import (
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// TypeProfile classifies the cache-line reuses of the random vertex-data
// accesses of an SpMV traversal into the paper's locality types (§IV-D):
//
//   - Type I: spatial reuse between *consecutive neighbours of the same
//     vertex* — the line of Di[u] is reused by the next neighbour u' of
//     the same destination vertex.
//   - Type II: temporal reuse of the *same vertex's data* by a later
//     destination vertex (common neighbours of nearby vertices).
//   - Type III: spatio-temporal reuse — the line is reused by a later
//     destination vertex through a *different* vertex's data sharing the
//     line.
//   - Type IV: like II, but the previous use of the line came from a
//     *different thread* — the reuse happens through the shared cache
//     (only in parallel profiles).
//   - Type V: like III across threads (only in parallel profiles).
//
// Types IV and V depend on partitioning and scheduling rather than on the
// reordering algorithm (§IV-D), which a multi-threaded
// ClassifyLocalityTypes makes measurable.
type TypeProfile struct {
	TypeI   uint64
	TypeII  uint64
	TypeIII uint64
	TypeIV  uint64
	TypeV   uint64
	Cold    uint64 // first touch of a line
	Total   uint64 // all random vertex-data accesses
}

// ClassifyLocalityTypes runs a pull traversal and classifies every random
// vertex-data read by the reuse relationship to the previous access of its
// cache line. It is an analysis tool, not a cache simulation: every line
// reuse is counted regardless of whether a finite cache would have
// retained it.
//
// threads and interval shape the emulated parallel stream as in
// SimulateSpMV. Each access belongs to the emulated thread that issued it
// (the edge-balanced partition of its destination vertex), and a reuse
// whose previous line use came from another thread counts as type IV
// (same data element) or type V (different element, same line). At
// threads <= 1 there are no cross-thread reuses.
func ClassifyLocalityTypes(g graph.Topology, lineSize, threads, interval int) TypeProfile {
	c := typeClassifier{
		lineSize:   uint64(lineSize),
		seenVertex: make([]bool, g.NumVertices()),
		last:       make(map[uint64]lastUse),
	}
	trace.RunBatched(g, trace.NewLayout(g), trace.Pull, threads, interval, func(thread int, block []trace.Access) bool {
		for _, a := range block {
			c.observe(thread, a)
		}
		return true
	})
	return c.profile
}

// typeClassifier holds the classification state of one traversal.
type typeClassifier struct {
	profile    TypeProfile
	lineSize   uint64
	seenVertex []bool
	last       map[uint64]lastUse
}

type lastUse struct {
	dest   uint32 // destination vertex being processed at last use
	thread int
}

func (c *typeClassifier) observe(thread int, a trace.Access) {
	if a.Kind != trace.KindVertexRead {
		return
	}
	curDest := a.Dest
	c.profile.Total++
	line := a.Addr / c.lineSize
	lu, ok := c.last[line]
	crossThread := ok && lu.thread != thread
	switch {
	case !ok:
		c.profile.Cold++
	case crossThread && c.seenVertex[a.Vertex]:
		c.profile.TypeIV++
	case crossThread:
		c.profile.TypeV++
	case lu.dest == curDest:
		// Reuse within the same destination vertex's neighbour loop:
		// spatial locality between consecutive neighbours.
		c.profile.TypeI++
	case c.seenVertex[a.Vertex]:
		// The same vertex's data element is being reused by a later
		// destination vertex.
		c.profile.TypeII++
	default:
		// The line is live but this element is fresh: spatio-temporal
		// reuse through a line-sharing neighbour.
		c.profile.TypeIII++
	}
	c.last[line] = lastUse{dest: curDest, thread: thread}
	c.seenVertex[a.Vertex] = true
}
