package reorder

import (
	"context"
	"runtime"
	"sync"

	"graphlocality/internal/graph"
)

// Boba is the sort-free *parallel* lightweight reordering (after BOBA,
// arXiv 2306.10410): vertices are binned into the same power-of-two degree
// classes as DBG, but the bucketing runs as a two-pass parallel counting
// sort — a per-worker histogram pass, one serial prefix over
// (bucket, worker) cells, and a parallel scatter pass. Because workers own
// contiguous ascending vertex ranges and the prefix lays cells out
// bucket-major (highest class first) then worker-minor, every vertex lands
// at the position the serial stable bucketing gives it: the output is
// bit-identical to DBG at every worker count, which is the intra-bucket
// tie-break contract (original ID order) the differential tests pin.
//
// Spec grammar: boba:workers=N,seed=S. workers=0 (the default) sizes the
// pool from GOMAXPROCS at run time, so a runtime GOMAXPROCS change is
// picked up per call; seed is accepted for sweep-grid uniformity and
// ignored — the ordering is deterministic by construction.
type Boba struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS at run time.
	Workers int
}

func init() {
	MustRegister(Registration{
		Name:        "boba",
		Description: "parallel sort-free degree bucketing (BOBA): DBG's classes via two counting passes, bit-equal at any worker count",
		Class:       ClassLight,
		Accepts:     []string{OptSeed, "workers"},
		New: func(s Spec) (Algorithm, error) {
			if _, err := s.uintParam(OptSeed, 0); err != nil {
				return nil, err // validated for grid uniformity, then ignored
			}
			workers, err := s.intParam("workers", 0, 0)
			if err != nil {
				return nil, err
			}
			return Boba{Workers: workers}, nil
		},
	})
}

// bobaGroups bounds the degree-class index: group() of a uint32 degree is
// 0 (degree 0) through 32.
const bobaGroups = 33

// bobaGroup is DBG's power-of-two degree class, kept in lockstep with
// DBG.Reorder's group closure: 0 for degree 0, else floor(log2(d))+1.
func bobaGroup(d uint32) int {
	gid := 0
	for d > 0 {
		d >>= 1
		gid++
	}
	return gid
}

// Name implements Algorithm. Workers is not part of the identity: the
// output is bit-identical at every worker count.
func (Boba) Name() string { return "BOBA" }

// Reorder implements Algorithm; it cannot fail.
func (b Boba) Reorder(_ context.Context, g *graph.Graph) (graph.Permutation, error) {
	n := int(g.NumVertices())
	deg := g.TotalDegrees()
	w := b.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}

	// Pass 1 (parallel): per-worker degree-class histograms over contiguous
	// ascending vertex ranges.
	counts := make([][bobaGroups]uint32, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			lo, hi := n*wk/w, n*(wk+1)/w
			c := &counts[wk]
			for v := lo; v < hi; v++ {
				c[bobaGroup(deg[v])]++
			}
		}(wk)
	}
	wg.Wait()

	// Serial prefix over (bucket, worker) cells, buckets from the highest
	// degree class down (DBG's layout), workers in ascending order within a
	// bucket (= ascending original ID, the stable tie-break).
	offsets := make([][bobaGroups]uint32, w)
	pos := uint32(0)
	for gr := bobaGroups - 1; gr >= 0; gr-- {
		for wk := 0; wk < w; wk++ {
			offsets[wk][gr] = pos
			pos += counts[wk][gr]
		}
	}

	// Pass 2 (parallel): scatter each worker's vertices into its
	// pre-assigned cells, preserving ascending ID order within each cell.
	order := make([]uint32, n)
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			lo, hi := n*wk/w, n*(wk+1)/w
			off := offsets[wk] // private copy to advance
			for v := lo; v < hi; v++ {
				gr := bobaGroup(deg[v])
				order[off[gr]] = uint32(v)
				off[gr]++
			}
		}(wk)
	}
	wg.Wait()
	return orderToPerm(order), nil
}
