package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"graphlocality/internal/cachesim"
	"graphlocality/internal/core"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/trace"
)

// simOrderings span the miss-rate range: identity is the generator's
// order, random destroys locality, dbg groups by degree.
var simOrderings = []string{"identity", "random", "dbg"}

// simConfigs are the four simulations of every graph in a pass. The
// names are the span and metric names under core.simulate.
var simConfigs = []string{"pull_attrib", "push", "pull_tlb", "segcsr"}

// segmentVertices keeps segments small enough that the decode budget
// (half the decoded graph) holds many of them.
const segmentVertices = 1024

// simGraph is one ordered graph of the simulate workload, in RAM and as a
// segment-backed copy.
type simGraph struct {
	name string
	g    *graph.Graph
	seg  *graph.SegGraph
	opts [4]core.SimOptions // indexed like simConfigs
}

// setupSimulate builds every graph under every ordering and writes its
// segment-backed copy into dir.
func setupSimulate(seed uint64, dir string, tr *tracer) ([]simGraph, error) {
	var out []simGraph
	for _, ds := range []dataset{twtrS, uks, unifS} {
		var g *graph.Graph
		tr.do("gen."+ds.name, func() { g = ds.build(seed) })
		for _, ord := range simOrderings {
			alg, err := reorder.New(ord)
			if err != nil {
				return nil, err
			}
			perm := reorder.Perm(alg, g)
			if err := checkPerm(perm, g.NumVertices(), 0, false); err != nil {
				return nil, fmt.Errorf("%s.%s: %w", ds.name, ord, err)
			}
			var h *graph.Graph
			tr.do("graph.relabel", func() { h = g.Relabel(perm) })
			sg, err := newSimGraph(ds.name+"."+ord, h, dir)
			if err != nil {
				return nil, err
			}
			out = append(out, sg)
		}
	}
	return out, nil
}

// newSimGraph writes h's segment-backed copy into dir, opens it, and sets
// up the four simulations of h.
func newSimGraph(name string, h *graph.Graph, dir string) (simGraph, error) {
	path := filepath.Join(dir, name+".segcsr")
	if _, err := graph.WriteSegmented(h, path, graph.SegmentedOptions{SegmentVertices: segmentVertices}); err != nil {
		return simGraph{}, err
	}
	// Half of the decoded in-adjacency (8 B per offset, 4 B per edge), so
	// a pull streams segments through the decode cache.
	budget := int64(4*uint64(h.NumVertices()) + 2*h.NumEdges())
	seg, err := graph.OpenSegmentedOpts(path, graph.SegmentedOptions{CacheBytes: budget})
	if err != nil {
		return simGraph{}, err
	}
	cfg := cachesim.ScaledL3(h.NumVertices(), cachesim.DefaultVertexCacheFraction)
	tlb := cachesim.ScaledTLB(trace.NewLayout(h).FootprintBytes(), 0.10)
	every := int(max(1, trace.CountAccesses(h)/200))
	return simGraph{name: name, g: h, seg: seg, opts: [4]core.SimOptions{
		{Threads: 4, Cache: cfg, PerVertex: true, SnapshotEvery: every},
		{Threads: 4, Cache: cfg, Direction: trace.Push},
		{Threads: 4, Cache: cfg, TLB: &tlb},
		{Threads: 4, Cache: cfg},
	}}, nil
}

func closeSimGraphs(gs []simGraph) {
	for _, sg := range gs {
		sg.seg.Close() // read-only; nothing to flush
	}
}

// sameSim reports the first counter of got that differs from want.
func sameSim(got, want core.SimResult) error {
	switch {
	case got.Cache != want.Cache:
		return mismatchf("cache stats %+v, want %+v", got.Cache, want.Cache)
	case got.TLB != want.TLB:
		return mismatchf("TLB stats %+v, want %+v", got.TLB, want.TLB)
	case got.BytesTouched != want.BytesTouched:
		return mismatchf("bytes touched %d, want %d", got.BytesTouched, want.BytesTouched)
	case got.Snapshots != want.Snapshots || got.ECS != want.ECS:
		return mismatchf("ECS %v over %d snapshots, want %v over %d", got.ECS, got.Snapshots, want.ECS, want.Snapshots)
	case got.Canceled != want.Canceled:
		return mismatchf("canceled %v, want %v", got.Canceled, want.Canceled)
	case !slices.Equal(got.VertexAccesses, want.VertexAccesses) || !slices.Equal(got.VertexMisses, want.VertexMisses) ||
		!slices.Equal(got.DestAccesses, want.DestAccesses) || !slices.Equal(got.DestMisses, want.DestMisses):
		return mismatchf("per-vertex attribution differs")
	}
	return nil
}

// segMatchesRAM reports a segment-backed result that differs from the
// in-RAM pull of the same graph. Attribution and snapshots do not change
// the cache stream, so the pull_attrib result is the in-RAM pull.
func segMatchesRAM(seg, ram core.SimResult) error {
	if seg.Cache != ram.Cache || seg.BytesTouched != ram.BytesTouched {
		return mismatchf("segment-backed pull %+v (%d B), in-RAM %+v (%d B)", seg.Cache, seg.BytesTouched, ram.Cache, ram.BytesTouched)
	}
	return nil
}

// simRun holds the results of a simulate run for checking.
type simRun struct {
	graphs []simGraph
	// first[i][c] is graph i's config-c result in the first pass; later
	// passes must reproduce it and it must match the reference.
	first [][4]core.SimResult
	// okOps[i][c] counts the operations that passed the in-run checks.
	okOps [][4]int
}

func (r *simRun) pass(o *ops, tr *tracer) {
	firstPass := r.first == nil
	if firstPass {
		r.first = make([][4]core.SimResult, len(r.graphs))
		r.okOps = make([][4]int, len(r.graphs))
	}
	runtime.GC() // start every pass from a collected heap
	for i, sg := range r.graphs {
		for c, name := range simConfigs {
			var topo graph.Topology = sg.g
			if name == "segcsr" {
				topo = sg.seg
			}
			var res core.SimResult
			t0 := time.Now()
			tr.do("core.simulate."+name, func() { res = core.SimulateSpMV(topo, sg.opts[c]) })
			d := time.Since(t0)

			var err error
			switch {
			case name == "segcsr" && sg.seg.Err() != nil:
				err = sg.seg.Err()
			case name == "segcsr":
				err = segMatchesRAM(res, r.first[i][0])
			case !firstPass:
				err = sameSim(res, r.first[i][c])
			}
			if err != nil {
				o.record(d, 0, fmt.Errorf("%s %s: %w", sg.name, name, err))
				continue
			}
			if firstPass {
				r.first[i][c] = res
			}
			r.okOps[i][c]++
			o.record(d, sg.g.NumEdges(), nil)
		}
	}
}

// checkReference compares the first pass of every in-RAM config with the
// scalar reference simulator, outside the timed region. A mismatch fails
// every operation of that cell.
func (r *simRun) checkReference(o *ops) {
	for i, sg := range r.graphs {
		for c, name := range simConfigs {
			if name == "segcsr" || r.okOps[i][c] == 0 {
				continue // segcsr is checked against the in-RAM pull
			}
			ref := core.SimulateSpMVReference(sg.g, sg.opts[c])
			if err := sameSim(r.first[i][c], ref); err != nil {
				err = fmt.Errorf("%s %s vs reference: %w", sg.name, name, err)
				for k := 0; k < r.okOps[i][c]; k++ {
					o.fail(err)
				}
			}
		}
	}
}

func runSimulate(ctx context.Context, cfg config, tr *tracer) (outcome, error) {
	dir, err := os.MkdirTemp(buildDir, "simulate-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)

	var graphs []simGraph
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		closeSimGraphs(graphs)
		graphs = nil
		runtime.GC()
		t0 := time.Now()
		gs, err := setupSimulate(cfg.seed, dir, tr)
		if err != nil {
			return outcome{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		graphs = gs
	}
	defer closeSimGraphs(graphs)

	r := &simRun{graphs: graphs}
	var o ops
	minPasses := 3
	if cfg.trace {
		minPasses = 4
	}
	untraced, traced, err := passes(ctx, cfg, tr, minPasses, func(t *tracer) { r.pass(&o, t) })
	if err != nil {
		return outcome{}, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return outcome{}, err
	}
	r.checkReference(&o)
	out := o.outcome(setupS, rss)
	out.notes = append(out.notes, fmt.Sprintf("simulate: %d passes over %d graphs x %d configs", len(untraced)+len(traced), len(graphs), len(simConfigs)))
	if cfg.trace {
		simLayers(out.metrics, r, tr, untraced, traced, &o)
	}
	return out, nil
}

// simLayers fills the simulate workload's per-layer metrics.
func simLayers(m map[string]float64, r *simRun, tr *tracer, untraced, traced []time.Duration, o *ops) {
	perPass := float64(len(traced))
	for _, ds := range []dataset{twtrS, uks, unifS} {
		d, n := tr.total("gen." + ds.name)
		m["gen."+ds.name+"_s"] = d.Seconds() / float64(n)
	}
	d, n := tr.total("graph.relabel")
	m["graph.relabel_s"] = d.Seconds() / setupRepeats
	m["graph.relabel_calls"] = float64(n) / setupRepeats

	var simTime time.Duration
	for _, name := range simConfigs {
		d, _ := tr.total("core.simulate." + name)
		m["core.simulate."+name+"_s"] = d.Seconds() / perPass
		simTime += d
	}
	var acc, misses, wb, tlbMiss, snaps uint64
	var peak int64
	for i, sg := range r.graphs {
		for c := range simConfigs {
			res := r.first[i][c]
			acc += res.Cache.Accesses
			misses += res.Cache.Misses
			wb += res.Cache.Writebacks
			tlbMiss += res.TLB.Misses
			snaps += uint64(res.Snapshots)
		}
		_, p, _ := sg.seg.CacheStats()
		peak = max(peak, p)
	}
	m["cachesim.accesses"] = float64(acc)
	m["cachesim.misses"] = float64(misses)
	m["cachesim.writebacks"] = float64(wb)
	m["cachesim.tlb_misses"] = float64(tlbMiss)
	m["cachesim.miss_rate"] = float64(misses) / float64(acc)
	m["core.ecs_snapshots"] = float64(snaps)
	m["segcsr.peak_resident_bytes"] = float64(peak)
	m["core.sim_ns_per_access"] = float64(simTime.Nanoseconds()) / (float64(acc) * perPass)
	passes := float64(len(untraced) + len(traced))
	m["core.simulate_maccess_per_s"] = float64(acc) * passes / 1e6 / o.busy.Seconds()
	m["bench.tracing_overhead_frac"] = overhead(untraced, traced)

	columns, batch := probeTraceAndCache(r.graphs)
	m["trace.columns_s"] = columns.Seconds()
	m["cachesim.access_batch_s"] = batch.Seconds()
}

// probeTraceAndCache splits a sequential pull over every graph into its
// two layers: trace.RunColumns generating the address columns alone, and
// Cache.AccessBatch replaying those columns.
func probeTraceAndCache(gs []simGraph) (columns, batch time.Duration) {
	for _, sg := range gs {
		layout := trace.NewLayout(sg.g)
		t0 := time.Now()
		trace.RunColumns(sg.g, layout, trace.Pull, trace.DefaultBatchSize, func([]uint64, []bool, int) bool { return true })
		columns += time.Since(t0)

		cache := cachesim.New(sg.opts[0].Cache)
		hits := make([]bool, trace.DefaultBatchSize)
		trace.RunColumns(sg.g, layout, trace.Pull, trace.DefaultBatchSize, func(addrs []uint64, writes []bool, _ int) bool {
			t := time.Now()
			cache.AccessBatch(addrs, writes, hits[:len(addrs)])
			batch += time.Since(t)
			return true
		})
	}
	return columns, batch
}
