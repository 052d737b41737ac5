package core

import (
	"runtime"
	"sync"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/graph"
	"graphlocality/internal/trace"
)

// SegmentedResult is the outcome of the paper's parallelized simulation.
type SegmentedResult struct {
	// Misses is the summed miss count over all segments.
	Misses uint64
	// Accesses is the total access count (exact).
	Accesses uint64
	// Segments is the number of independently simulated stream segments.
	Segments int
}

// MissRate returns Misses/Accesses.
func (r SegmentedResult) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// SimulateSpMVSegmented implements the paper's phase-2 parallelization
// (§V-B): "dividing execution duration between threads where for each
// interval a thread simulates all logged accesses". The interleaved
// access stream is cut into `segments` equal time slices, each simulated
// concurrently against its own cache whose state starts cold — the
// approximation that gives the paper its reported 15% absolute error
// while keeping the *relative* error between reorderings at 1.4%, which
// is what the analysis depends on. Use SimulateSpMV for the exact
// (sequential) numbers.
//
// g is any Topology (in-RAM or segment-backed). Honoured options:
// Direction (default Pull, as the paper simulates), Threads and Interval
// (the emulated interleaving) and Cache. At most GOMAXPROCS segment
// replays run at once, each holding its own cache; the replayed stream is
// materialized once, so the result is identical at every GOMAXPROCS.
func SimulateSpMVSegmented(g graph.Topology, opts SimOptions, segments int) SegmentedResult {
	segments = max(segments, 1)
	opts = opts.withDefaults(g)

	// Materialize the interleaved stream once (phase 1 + interleaving) as
	// parallel address/write arrays — the only access fields the segment
	// replay needs, at 9 bytes per access instead of 24 for full records.
	total := int(trace.CountAccesses(g))
	addrs := make([]uint64, 0, total)
	writes := make([]bool, 0, total)
	trace.RunBatched(g, trace.NewLayout(g), opts.Direction, opts.Threads, opts.Interval, func(_ int, block []trace.Access) bool {
		for _, a := range block {
			addrs = append(addrs, a.Addr)
			writes = append(writes, a.Write)
		}
		return true
	})

	res := SegmentedResult{Accesses: uint64(len(addrs)), Segments: segments}
	per := (len(addrs) + segments - 1) / segments
	misses := make([]uint64, segments)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for s := 0; s < segments; s++ {
		lo := s * per
		if lo >= len(addrs) {
			break
		}
		hi := lo + per
		if hi > len(addrs) {
			hi = len(addrs)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer func() { <-sem; wg.Done() }()
			c := cachesim.New(opts.Cache)
			c.AccessBatch(addrs[lo:hi], writes[lo:hi], nil)
			misses[s] = c.Stats().Misses
		}(s, lo, hi)
	}
	wg.Wait()
	for _, m := range misses {
		res.Misses += m
	}
	return res
}
