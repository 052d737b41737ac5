package core

import (
	"math"
	"runtime"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

func TestSegmentedMatchesExactWithOneSegment(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 6, 1))
	cfg := smallCache()
	exact := SimulateSpMV(g, SimOptions{Cache: cfg, Threads: 4, Interval: 256})
	seg := SimulateSpMVSegmented(g, SimOptions{Cache: cfg, Threads: 4, Interval: 256}, 1)
	if seg.Misses != exact.Cache.Misses {
		t.Errorf("1-segment misses %d != exact %d", seg.Misses, exact.Cache.Misses)
	}
	if seg.Accesses != trace.CountAccesses(g) {
		t.Errorf("accesses = %d", seg.Accesses)
	}
}

func TestSegmentedErrorBounded(t *testing.T) {
	// The paper reports ~15% absolute error for its parallel simulation;
	// at our scaled-down cache size cold starts weigh proportionally
	// more, so the bound here is looser. Cold-start overcounts misses,
	// so segmented >= exact, and the inflation must stay moderate.
	g := gen.SocialNetwork(12, 12, 5)
	cfg := smallCache()
	exact := SimulateSpMV(g, SimOptions{Cache: cfg, Threads: 4, Interval: 256})
	seg := SimulateSpMVSegmented(g, SimOptions{Cache: cfg, Threads: 4, Interval: 256}, 4)
	if seg.Misses < exact.Cache.Misses {
		t.Errorf("segmented %d below exact %d — cold starts should only add misses",
			seg.Misses, exact.Cache.Misses)
	}
	rel := float64(seg.Misses)/float64(exact.Cache.Misses) - 1
	if rel > 0.35 {
		t.Errorf("segmented absolute error %.1f%% too large", 100*rel)
	}
	if seg.MissRate() <= 0 {
		t.Error("zero miss rate")
	}
}

func TestSegmentedPreservesRelativeOrdering(t *testing.T) {
	// The paper's key validation: the *relative* comparison between two
	// reorderings survives the approximation (1.4% relative error there).
	g := gen.WebGraph(gen.DefaultWebGraph(1<<13, 8, 7))
	ro := g.Relabel(reorder.Perm(reorder.MustNew("ro"), g))
	sb := g.Relabel(reorder.Perm(reorder.MustNew("sb"), g))
	cfg := smallCache()

	exactRO := SimulateSpMV(ro, SimOptions{Cache: cfg, Threads: 4}).Cache.Misses
	exactSB := SimulateSpMV(sb, SimOptions{Cache: cfg, Threads: 4}).Cache.Misses
	segRO := SimulateSpMVSegmented(ro, SimOptions{Cache: cfg, Threads: 4, Interval: 1024}, 8).Misses
	segSB := SimulateSpMVSegmented(sb, SimOptions{Cache: cfg, Threads: 4, Interval: 1024}, 8).Misses

	if (exactRO < exactSB) != (segRO < segSB) {
		t.Fatalf("segmented simulation inverted the RO-vs-SB ordering: exact %d/%d, segmented %d/%d",
			exactRO, exactSB, segRO, segSB)
	}
	// Relative gap should agree within a few percent.
	exactRatio := float64(exactRO) / float64(exactSB)
	segRatio := float64(segRO) / float64(segSB)
	if math.Abs(exactRatio-segRatio) > 0.10 {
		t.Errorf("relative ratio drifted: exact %.3f vs segmented %.3f", exactRatio, segRatio)
	}
}

func TestSegmentedDegenerateArgs(t *testing.T) {
	g := gen.Ring(50)
	res := SimulateSpMVSegmented(g, SimOptions{Cache: smallCache(), Threads: 1}, 0)
	if res.Segments != 1 || res.Accesses != trace.CountAccesses(g) {
		t.Errorf("degenerate result: %+v", res)
	}
	var empty SegmentedResult
	if empty.MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
}

// TestSegmentedWorkersBound: the GOMAXPROCS bound on concurrent segment
// replays must not change the result (the stream is materialized before
// replay), whether the replays run one at a time or four at once.
func TestSegmentedWorkersBound(t *testing.T) {
	g := gen.SocialNetwork(10, 11, 6)
	opts := SimOptions{Cache: smallCache(), Threads: 4, Interval: 128}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial := SimulateSpMVSegmented(g, opts, 8)
	runtime.GOMAXPROCS(4)
	wide := SimulateSpMVSegmented(g, opts, 8)
	if serial != wide {
		t.Fatalf("GOMAXPROCS changed the segmented result: %+v at 1 vs %+v at 4", serial, wide)
	}
}
