package trace

import "graphlocality/internal/graph"

// Batched stream generation. RunReference pays one state-machine call per
// access (vertexIter.next) plus one sink call per access; for SpMV traces
// that is 3|V|+2|E| calls per iteration and dominates simulation cost.
// The batched generators amortize both: a bulk generator fills fixed-size
// blocks with tight loops over the CSR/CSC arrays and the sink is invoked
// once per block.
//
// Bit-exactness contract: concatenating the blocks a batched generator
// delivers yields exactly the access stream RunReference emits for the
// same threads and interval — same addresses, kinds, write flags,
// vertex/dest attribution, same order. The stream-equality tests here and
// the differential suite in core hold the generators together.

// DefaultBatchSize is the block granularity of the batched access-stream
// generators: large enough to amortize one sink call over thousands of
// accesses, small enough that a block of 24-byte Access records stays
// cache-resident.
const DefaultBatchSize = 4096

// BatchSink receives consecutive blocks of simulated accesses in stream
// order, each tagged with the emulated thread that issued it, and reports
// whether the stream should continue; returning false stops it
// (cooperative cancellation at block granularity).
type BatchSink func(thread int, block []Access) bool

// RunBatched generates RunReference's interleaved stream for the same
// threads and interval in blocks of up to DefaultBatchSize accesses. A
// block never spans two emulated threads: it is cut at every thread
// switch, and the sink learns the issuing thread (the index of its
// edge-balanced partition). g is any Topology. It reports whether the
// traversal ran to completion.
func RunBatched(g graph.Topology, l Layout, dir Direction, threads, interval int, sink BatchSink) bool {
	return runBatched(g, l, dir, threads, interval, DefaultBatchSize, sink)
}

// runBatched is RunBatched with a chosen block size, so the tests can
// check that block cuts never change the stream.
func runBatched(g graph.Topology, l Layout, dir Direction, threads, interval, blockSize int, sink BatchSink) bool {
	interval = max(interval, 1)
	ranges := g.PartitionEdgeBalanced(dir == Pull, threads)
	if len(ranges) == 1 {
		// One thread has nothing to interleave: fill whole blocks.
		interval = blockSize
	}
	iters := make([]*bulkIter, len(ranges))
	for i, r := range ranges {
		iters[i] = newBulkIter(g, l, dir, r)
	}

	buf := make([]Access, 0, blockSize)
	owner := 0
	flush := func() bool {
		if len(buf) == 0 {
			return true
		}
		ok := sink(owner, buf)
		buf = buf[:0]
		return ok
	}
	live := len(iters)
	for live > 0 {
		live = 0
		for i, it := range iters {
			if it.done {
				continue
			}
			if i != owner {
				if !flush() {
					return false
				}
				owner = i
			}
			for rem := interval; rem > 0 && !it.done; {
				if len(buf) == blockSize && !flush() {
					return false
				}
				k := min(rem, blockSize-len(buf))
				n := it.fill(buf[len(buf) : len(buf)+k])
				buf = buf[:len(buf)+n]
				rem -= n
			}
			if !it.done {
				live++
			}
		}
	}
	return flush()
}

// ColumnSink receives a block of simulated accesses in columnar form:
// parallel addrs/writes arrays (the only per-access fields a plain cache
// simulation consumes) plus the number of edges-array reads in the block,
// which fixes the block's bytes-touched sum (edges elements are 4 bytes,
// everything else 8). Returning false stops the stream.
type ColumnSink func(addrs []uint64, writes []bool, edgeReads int) bool

// RunColumns generates the single-threaded stream (RunReference at
// threads 1) in columnar blocks of up to blockSize accesses
// (0 = DefaultBatchSize): the same addresses and write flags in the same
// order, without materializing Access records. It is the
// lowest-overhead stream shape, used by the plain (no per-vertex
// attribution) simulation fast path. It reports whether the traversal ran
// to completion.
func RunColumns(g graph.Topology, l Layout, dir Direction, blockSize int, sink ColumnSink) bool {
	if blockSize < 1 {
		blockSize = DefaultBatchSize
	}
	it := newBulkIter(g, l, dir, graph.Range{Lo: 0, Hi: g.NumVertices()})
	addrs := make([]uint64, blockSize)
	writes := make([]bool, blockSize)
	for !it.done {
		// fillColumns only stores the (rare) true flags; one vectorized
		// clear per block replaces a byte store per access.
		clear(writes)
		n, edgeReads := it.fillColumns(addrs, writes)
		if n == 0 {
			break
		}
		if !sink(addrs[:n], writes[:n], edgeReads) {
			return false
		}
	}
	return true
}

// bulkIter is the resumable bulk generator behind the batched runners: a
// cursor over one partition's program order whose fill method emits many
// accesses per call. It produces, access for access, the stream vertexIter
// produces — the stage encoding below mirrors vertexIter's states, but the
// edges loop runs as a tight pair-emitting loop instead of one next() call
// per access.
//
// Rows arrive through the topology's RowCursor as contiguous spans (a
// single zero-copy span for the in-RAM graph, one decoded span per
// segment for a segment-backed graph). The offset values and the
// iterator's edge index ei are always *absolute*, so the addresses —
// and therefore every simulated outcome — are identical across
// representations; only the slice indexing is span-relative.
type bulkIter struct {
	l   Layout
	dir Direction
	cur graph.RowCursor
	r   graph.Range

	// Current span: offsets/adjacency of [base, spanHi), with adj[0] at
	// absolute edge index adjBase (= off[0]).
	off     []uint64
	adj     []uint32
	base    uint32
	adjBase uint64
	spanHi  uint32

	v    uint32 // current vertex
	ei   uint64 // current absolute edge index
	hi   uint64 // one past v's last edge index
	st   int
	done bool
}

// bulkIter stages. stEdgeData exists for the case where a block boundary
// falls between an edges-array read and its paired vertex-data access.
const (
	stOffsets0 = iota // emit offsets[v]
	stOffsets1        // emit offsets[v+1]
	stEdges           // emit (edges[ei], data) pairs
	stEdgeData        // emit the data access paired with edges[ei]
	stOwn             // emit the own-data access, advance v
)

func newBulkIter(g graph.Topology, l Layout, dir Direction, r graph.Range) *bulkIter {
	it := &bulkIter{l: l, dir: dir, r: r, v: r.Lo}
	it.cur = g.Rows(dir == Pull, r.Lo, r.Hi)
	if r.Lo >= r.Hi || !it.nextSpan() {
		it.done = true
	}
	return it
}

// nextSpan pulls the next contiguous span from the row cursor. It
// returns false when the cursor is exhausted.
func (it *bulkIter) nextSpan() bool {
	base, off, adj, ok := it.cur.Next()
	if !ok || len(off) < 2 {
		return false
	}
	it.base, it.off, it.adj = base, off, adj
	it.adjBase = off[0]
	it.spanHi = base + uint32(len(off)) - 1
	return true
}

// loadVertex positions ei/hi on it.v's row, advancing to the next span
// when the current one is exhausted. It returns false (and marks the
// iterator done) if no span covers it.v — a cursor-contract violation
// that can only mean a representation bug; ending the stream early is
// the safe response.
func (it *bulkIter) loadVertex() bool {
	for it.v >= it.spanHi {
		if !it.nextSpan() {
			it.done = true
			return false
		}
	}
	rel := it.v - it.base
	it.ei = it.off[rel]
	it.hi = it.off[rel+1]
	return true
}

// fillColumns is fill in columnar form: it writes the addresses and write
// flags of up to len(addrs) accesses into the parallel arrays (same
// program order, same resumability) and returns the count written plus how
// many of them were edges-array reads. writes[:len(addrs)] must be all
// false on entry — only the true flags are stored. Kept in lockstep with
// fill — the stream-equality tests compare the two shapes access for
// access.
func (it *bulkIter) fillColumns(addrs []uint64, writes []bool) (int, int) {
	if it.done {
		return 0, 0
	}
	l := it.l
	adj := it.adj
	adjBase := it.adjBase
	push := it.dir == Push
	n := 0
	edgeReads := 0
	for n < len(addrs) {
		switch it.st {
		case stOffsets0:
			if !it.loadVertex() {
				return n, edgeReads
			}
			adj = it.adj
			adjBase = it.adjBase
			addrs[n] = l.OffsetsAddr(it.v)
			n++
			it.st = stOffsets1
		case stOffsets1:
			addrs[n] = l.OffsetsAddr(it.v + 1)
			n++
			it.st = stEdges
		case stEdges:
			pairs := uint64(len(addrs)-n) / 2
			if left := it.hi - it.ei; left < pairs {
				pairs = left
			}
			if push {
				for k := uint64(0); k < pairs; k++ {
					addrs[n] = l.EdgeAddr(it.ei)
					addrs[n+1] = l.NewDataAddr(adj[it.ei-adjBase])
					writes[n+1] = true
					n += 2
					it.ei++
				}
			} else {
				for k := uint64(0); k < pairs; k++ {
					addrs[n] = l.EdgeAddr(it.ei)
					addrs[n+1] = l.OldDataAddr(adj[it.ei-adjBase])
					n += 2
					it.ei++
				}
			}
			edgeReads += int(pairs)
			if it.ei == it.hi {
				it.st = stOwn
			} else if n == len(addrs)-1 {
				addrs[n] = l.EdgeAddr(it.ei)
				n++
				edgeReads++
				it.st = stEdgeData
			}
		case stEdgeData:
			if push {
				addrs[n] = l.NewDataAddr(adj[it.ei-adjBase])
				writes[n] = true
			} else {
				addrs[n] = l.OldDataAddr(adj[it.ei-adjBase])
			}
			n++
			it.ei++
			if it.ei == it.hi {
				it.st = stOwn
			} else {
				it.st = stEdges
			}
		case stOwn:
			if push {
				addrs[n] = l.OldDataAddr(it.v)
			} else {
				addrs[n] = l.NewDataAddr(it.v)
				writes[n] = true
			}
			n++
			it.v++
			it.st = stOffsets0
			if it.v >= it.r.Hi {
				it.done = true
				return n, edgeReads
			}
		}
	}
	return n, edgeReads
}

// fill writes up to len(dst) accesses of the partition's program order into
// dst, resuming exactly where the previous call stopped, and returns the
// number written. It writes fewer than len(dst) only when the partition's
// stream ends.
func (it *bulkIter) fill(dst []Access) int {
	if it.done {
		return 0
	}
	l := it.l
	adj := it.adj
	adjBase := it.adjBase
	push := it.dir == Push
	n := 0
	for n < len(dst) {
		switch it.st {
		case stOffsets0:
			if !it.loadVertex() {
				return n
			}
			adj = it.adj
			adjBase = it.adjBase
			dst[n] = Access{Addr: l.OffsetsAddr(it.v), Kind: KindOffsets, Vertex: it.v, Dest: it.v}
			n++
			it.st = stOffsets1
		case stOffsets1:
			dst[n] = Access{Addr: l.OffsetsAddr(it.v + 1), Kind: KindOffsets, Vertex: it.v, Dest: it.v}
			n++
			it.st = stEdges
		case stEdges:
			// Emit full (edges read, vertex-data access) pairs while both
			// edges and room remain.
			pairs := uint64(len(dst)-n) / 2
			if left := it.hi - it.ei; left < pairs {
				pairs = left
			}
			if push {
				for k := uint64(0); k < pairs; k++ {
					u := adj[it.ei-adjBase]
					dst[n] = Access{Addr: l.EdgeAddr(it.ei), Kind: KindEdges, Vertex: it.v, Dest: it.v}
					dst[n+1] = Access{Addr: l.NewDataAddr(u), Kind: KindVertexWrite, Write: true, Vertex: u, Dest: it.v}
					n += 2
					it.ei++
				}
			} else {
				for k := uint64(0); k < pairs; k++ {
					u := adj[it.ei-adjBase]
					dst[n] = Access{Addr: l.EdgeAddr(it.ei), Kind: KindEdges, Vertex: it.v, Dest: it.v}
					dst[n+1] = Access{Addr: l.OldDataAddr(u), Kind: KindVertexRead, Vertex: u, Dest: it.v}
					n += 2
					it.ei++
				}
			}
			if it.ei == it.hi {
				it.st = stOwn
			} else if n == len(dst)-1 {
				// One slot left: emit the edges read alone and resume with
				// its paired data access next call.
				dst[n] = Access{Addr: l.EdgeAddr(it.ei), Kind: KindEdges, Vertex: it.v, Dest: it.v}
				n++
				it.st = stEdgeData
			}
			// n == len(dst): block full, resume at stEdges.
		case stEdgeData:
			u := adj[it.ei-adjBase]
			if push {
				dst[n] = Access{Addr: l.NewDataAddr(u), Kind: KindVertexWrite, Write: true, Vertex: u, Dest: it.v}
			} else {
				dst[n] = Access{Addr: l.OldDataAddr(u), Kind: KindVertexRead, Vertex: u, Dest: it.v}
			}
			n++
			it.ei++
			if it.ei == it.hi {
				it.st = stOwn
			} else {
				it.st = stEdges
			}
		case stOwn:
			// End of vertex: pull/push-read write their own Di+1[v]; push
			// reads its own Di[v].
			if push {
				dst[n] = Access{Addr: l.OldDataAddr(it.v), Kind: KindVertexRead, Vertex: it.v, Dest: it.v}
			} else {
				dst[n] = Access{Addr: l.NewDataAddr(it.v), Kind: KindVertexWrite, Write: true, Vertex: it.v, Dest: it.v}
			}
			n++
			it.v++
			it.st = stOffsets0
			if it.v >= it.r.Hi {
				it.done = true
				return n
			}
		}
	}
	return n
}
