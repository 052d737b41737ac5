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
// emulated workers are split evenly across `sockets` (thread t runs on
// socket t*sockets/Threads), each socket has its own shared L3 of the
// given geometry, and each worker's accesses go to its socket's cache.
// Compared to the single-cache simulation this exposes the cost of
// splitting the shared working set: vertex data hot on both sockets
// occupies lines in both caches.
//
// g is any Topology (in-RAM or segment-backed). Honoured options:
// Direction (default Pull), Threads (raised to at least `sockets`),
// Interval (interleaving granularity, default 1024) and Cache.
func SimulateSpMVNUMA(g graph.Topology, opts SimOptions, sockets int) NUMAResult {
	sockets = max(sockets, 1)
	opts = opts.withDefaults(g)
	opts.Threads = max(opts.Threads, sockets)
	caches := make([]*cachesim.Cache, sockets)
	for i := range caches {
		caches[i] = cachesim.New(opts.Cache)
	}
	// A block never spans two threads — and therefore two sockets — so
	// each block feeds its socket's cache in a single batched call.
	// Scratch buffers are reused across blocks.
	addrs := make([]uint64, trace.DefaultBatchSize)
	writes := make([]bool, trace.DefaultBatchSize)
	trace.RunBatched(g, trace.NewLayout(g), opts.Direction, opts.Threads, opts.Interval, func(thread int, block []trace.Access) bool {
		for i, a := range block {
			addrs[i] = a.Addr
			writes[i] = a.Write
		}
		caches[thread*sockets/opts.Threads].AccessBatch(addrs[:len(block)], writes[:len(block)], nil)
		return true
	})
	var res NUMAResult
	for _, c := range caches {
		st := c.Stats()
		res.Sockets = append(res.Sockets, st)
		res.TotalMisses += st.Misses
	}
	return res
}
