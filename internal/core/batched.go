package core

import (
	"graphlocality/internal/cachesim"
	"graphlocality/internal/graph"
	"graphlocality/internal/runctl"
	"graphlocality/internal/trace"
)

// simulateBatched is the batched fast path behind SimulateSpMV. It
// produces a SimResult bit-identical to SimulateSpMVReference for every
// policy, direction, prefetch and snapshot setting (the differential suite
// enforces this) while avoiding all per-access call overhead:
//
//   - the access stream arrives in blocks of up to trace.DefaultBatchSize
//     accesses (RunColumns, or RunBatched when threads or per-vertex
//     attribution need Access records) instead of one sink call per
//     access;
//   - the cache and TLB consume each block through AccessBatch, which
//     hoists geometry and folds statistics once per block;
//   - per-vertex attribution and bytes-touched accounting run as tight
//     loops over the block;
//   - ECS snapshots are honoured exactly by splitting blocks at snapshot
//     points, so the cache is scanned at the same access counts as the
//     scalar path.
//
// Cancellation is coarser than the scalar path's PollEvery: the context is
// checked once per block (on the order of runctl.DefaultPollInterval
// accesses), and a canceled run's counters cover a whole number of
// blocks.
func simulateBatched(g graph.Topology, opts SimOptions) SimResult {
	opts = opts.withDefaults(g)
	cache := cachesim.New(opts.Cache)
	var tlb *cachesim.TLB
	if opts.TLB != nil {
		tlb = cachesim.NewTLB(*opts.TLB)
	}
	layout := trace.NewLayout(g)

	res := SimResult{}
	if opts.PerVertex {
		res.VertexAccesses = make([]uint32, g.NumVertices())
		res.VertexMisses = make([]uint32, g.NumVertices())
		res.DestAccesses = make([]uint32, g.NumVertices())
		res.DestMisses = make([]uint32, g.NumVertices())
	}

	totalLines := float64(opts.Cache.Sets * opts.Cache.Ways)
	var ecsSum float64
	var accesses, bytesTouched uint64
	// One context check per block: every=1 makes each Check inspect the
	// context, and process() calls it once per delivered block.
	poll := runctl.NewPoller(opts.Ctx, 1)

	// The random vertex-data accesses to attribute: neighbour-data writes
	// in push, neighbour-data reads in pull/push-read. The own-data access
	// at the end of each vertex has the other kind, so comparing Kind
	// against randKind reproduces the scalar predicate exactly.
	randKind := trace.KindVertexRead
	if opts.Direction == trace.Push {
		randKind = trace.KindVertexWrite
	}

	addrs := make([]uint64, trace.DefaultBatchSize)
	writes := make([]bool, trace.DefaultBatchSize)
	var hits []bool
	if opts.PerVertex {
		hits = make([]bool, trace.DefaultBatchSize)
	}

	snapshot := func() {
		var dataLines int
		cache.Snapshot(func(line uint64) {
			if layout.InOldData(line) {
				dataLines++
			}
		})
		ecsSum += 100 * float64(dataLines) / totalLines
		res.Snapshots++
	}

	// processColumns consumes one columnar block: cache and TLB eat the
	// address array directly, bytes-touched folds from the edge-read count
	// (element sizes per the paper's representation: 4 B edges, 8 B
	// everything else), and the block is split at ECS snapshot points so
	// the cache is scanned at exactly the access counts the scalar path
	// scans it at.
	processColumns := func(blockAddrs []uint64, blockWrites []bool, edgeReads int) bool {
		bytesTouched += uint64(trace.VertexDataBytes*len(blockAddrs) -
			(trace.VertexDataBytes-trace.EdgeBytes)*edgeReads)
		for len(blockAddrs) > 0 {
			sub := len(blockAddrs)
			if opts.SnapshotEvery > 0 {
				every := uint64(opts.SnapshotEvery)
				if untilSnap := (accesses/every+1)*every - accesses; untilSnap < uint64(sub) {
					sub = int(untilSnap)
				}
			}
			cache.AccessBatch(blockAddrs[:sub], blockWrites[:sub], nil)
			if tlb != nil {
				tlb.AccessBatch(blockAddrs[:sub], nil)
			}
			accesses += uint64(sub)
			if opts.SnapshotEvery > 0 && accesses%uint64(opts.SnapshotEvery) == 0 {
				snapshot()
			}
			blockAddrs = blockAddrs[sub:]
			blockWrites = blockWrites[sub:]
		}
		return poll.Check() == nil
	}

	// process consumes one Access-record block (needed when per-vertex
	// attribution wants the Vertex/Dest/Kind fields): the block is
	// transposed into the scratch columns, then handled like processColumns
	// with the attribution loop folded in per sub-block.
	process := func(_ int, block []trace.Access) bool {
		for len(block) > 0 {
			sub := block
			if opts.SnapshotEvery > 0 {
				every := uint64(opts.SnapshotEvery)
				if untilSnap := (accesses/every+1)*every - accesses; untilSnap < uint64(len(sub)) {
					sub = sub[:untilSnap]
				}
			}
			n := len(sub)
			edgeReads := 0
			for i, a := range sub {
				addrs[i] = a.Addr
				writes[i] = a.Write
				if a.Kind == trace.KindEdges {
					edgeReads++
				}
			}
			if opts.PerVertex {
				cache.AccessBatch(addrs[:n], writes[:n], hits[:n])
				for i, a := range sub {
					if a.Kind == randKind {
						res.VertexAccesses[a.Vertex]++
						res.DestAccesses[a.Dest]++
						if !hits[i] {
							res.VertexMisses[a.Vertex]++
							res.DestMisses[a.Dest]++
						}
					}
				}
			} else {
				cache.AccessBatch(addrs[:n], writes[:n], nil)
			}
			if tlb != nil {
				tlb.AccessBatch(addrs[:n], nil)
			}
			bytesTouched += uint64(trace.VertexDataBytes*n - (trace.VertexDataBytes-trace.EdgeBytes)*edgeReads)
			accesses += uint64(n)
			if opts.SnapshotEvery > 0 && accesses%uint64(opts.SnapshotEvery) == 0 {
				snapshot()
			}
			block = block[n:]
		}
		return poll.Check() == nil
	}

	if opts.Threads == 1 && !opts.PerVertex {
		res.Canceled = !trace.RunColumns(g, layout, opts.Direction, trace.DefaultBatchSize, processColumns)
	} else {
		res.Canceled = !trace.RunBatched(g, layout, opts.Direction, opts.Threads, opts.Interval, process)
	}

	res.Cache = cache.Stats()
	res.BytesTouched = bytesTouched
	if tlb != nil {
		res.TLB = tlb.Stats()
	}
	if res.Snapshots > 0 {
		res.ECS = ecsSum / float64(res.Snapshots)
	}
	return res
}
