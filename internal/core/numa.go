package core

import (
	"graphlocality/internal/cachesim"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// NUMAResult holds the per-socket counters of a multi-socket simulation.
type NUMAResult struct {
	// Sockets holds each socket's shared-L3 statistics.
	Sockets []cachesim.Stats
	// TotalMisses sums socket misses (memory traffic).
	TotalMisses uint64
}

// SimulateSpMVNUMA models the paper's 2-socket machine shape: the
// emulated workers are split evenly across `sockets`, each socket has its
// own shared L3 of the given geometry, and each worker's accesses go to
// its socket's cache. Compared to the single-cache simulation this
// exposes the cost of splitting the shared working set: vertex data hot
// on both sockets occupies lines in both caches.
//
// g is any Topology (in-RAM or segment-backed). Honoured options:
// Direction (default Pull), Threads (raised to at least `sockets`),
// Interval (replay slice granularity, default 1024) and Cache.
func SimulateSpMVNUMA(g graph.Topology, opts SimOptions, sockets int) NUMAResult {
	if sockets < 1 {
		sockets = 1
	}
	if opts.Threads < sockets {
		opts.Threads = sockets
	}
	if opts.Interval < 1 {
		opts.Interval = 1024
	}
	if opts.Cache == (cachesim.Config{}) {
		opts.Cache = cachesim.ScaledL3(g.NumVertices(), cachesim.DefaultVertexCacheFraction)
	}
	caches := make([]*cachesim.Cache, sockets)
	for i := range caches {
		caches[i] = cachesim.New(opts.Cache)
	}
	layout := trace.NewLayout(g)
	logs := trace.CollectLogs(g, layout, opts.Direction, opts.Threads)
	perSocket := (opts.Threads + sockets - 1) / sockets
	// Each replayed interval slice belongs to one thread — and therefore to
	// one socket — so the whole slice feeds that socket's cache in a single
	// batched call. Scratch buffers are reused across slices.
	addrs := make([]uint64, 0, opts.Interval)
	writes := make([]bool, 0, opts.Interval)
	trace.ReplayBatched(logs, opts.Interval, func(thread int, block []trace.Access) {
		addrs = addrs[:0]
		writes = writes[:0]
		for _, a := range block {
			addrs = append(addrs, a.Addr)
			writes = append(writes, a.Write)
		}
		caches[thread/perSocket].AccessBatch(addrs, writes, nil)
	})
	var res NUMAResult
	for _, c := range caches {
		st := c.Stats()
		res.Sockets = append(res.Sockets, st)
		res.TotalMisses += st.Misses
	}
	return res
}
