package main

import (
	"context"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"time"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
)

// dataset is one synthetic graph family of the experiment suite, built
// from the workload seed.
type dataset struct {
	name  string
	build func(seed uint64) *graph.Graph
}

// The families and sizes of the standard experiment suite
// (internal/expt/datasets.go); only the generator seed differs.
var (
	twtrS = dataset{"TwtrS", func(s uint64) *graph.Graph { return gen.SocialNetwork(15, 16, s) }}
	sks   = dataset{"SKS", func(s uint64) *graph.Graph { return gen.WebGraph(gen.DefaultWebGraph(1<<15, 16, s)) }}
	uks   = dataset{"UKS", func(s uint64) *graph.Graph { return gen.WebGraph(gen.DefaultWebGraph(1<<17, 8, s)) }}
	unifS = dataset{"UnifS", func(s uint64) *graph.Graph { return gen.ErdosRenyi(1<<15, 500000, s) }}
)

// reorderCell is one RA run of a reorder pass.
type reorderCell struct {
	ds, alg string
	// fixed runs the cell on its family's graph at fixedSeed instead of
	// the workload seed.
	fixed bool
}

// fixedSeed is the generator seed of brew's input. Brew's cost on the SKS
// family swings between 5.5 s and 13.4 s with the generator seed (seeds
// 1-8, 2-core Xeon), which would swamp every other cell across seeds; on
// one input it repeats within a few percent.
const fixedSeed = 1

// reorderCells are the RA runs of one reorder pass. Brew runs on the web
// graph only: on the social graphs of the suite it takes 50-160 s.
var reorderCells = []reorderCell{
	{"TwtrS", "dbg", false}, {"TwtrS", "hubsort", false}, {"TwtrS", "rcm", false}, {"TwtrS", "sb", false},
	{"TwtrS", "sb++", false}, {"TwtrS", "go", false}, {"TwtrS", "ro", false},
	{"SKS", "dbg", false}, {"SKS", "hubsort", false}, {"SKS", "rcm", false}, {"SKS", "sb", false},
	{"SKS", "sb++", false}, {"SKS", "go", false}, {"SKS", "ro", false}, {"SKS", "brew", true},
}

// graphKey names the graph a cell runs on in reorderState.graphs.
func (c reorderCell) graphKey() string {
	if c.fixed {
		return c.ds + ".fixed"
	}
	return c.ds
}

// cellName is the metric and CRC-table name of a cell ("sb++" -> "sbpp").
func cellName(ds, alg string) string {
	return ds + "." + strings.ReplaceAll(alg, "+", "p")
}

//go:embed perm_crc32c.json
var permCRCJSON []byte

// permCRCs pins the CRC32C of every reorder permutation at defaultSeed.
func permCRCs() (map[string]uint32, error) {
	var m map[string]uint32
	if err := json.Unmarshal(permCRCJSON, &m); err != nil {
		return nil, fmt.Errorf("perm_crc32c.json: %w", err)
	}
	return m, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// permCRC is the CRC32C of the little-endian permutation, the fingerprint
// the serve API reports too.
func permCRC(p graph.Permutation) uint32 {
	buf := make([]byte, 4*len(p))
	for i, v := range p {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	return crc32.Checksum(buf, castagnoli)
}

// checkPerm reports a permutation that is not a bijection over n vertices
// or whose CRC differs from want (when haveWant).
func checkPerm(p graph.Permutation, n uint32, want uint32, haveWant bool) error {
	if uint32(len(p)) != n {
		return mismatchf("permutation has %d entries, graph %d vertices", len(p), n)
	}
	if err := p.Validate(); err != nil {
		return mismatchf("%v", err)
	}
	if got := permCRC(p); haveWant && got != want {
		return mismatchf("permutation CRC32C %08x, want %08x", got, want)
	}
	return nil
}

// checkRelabel reports a relabeled graph h that is malformed or does not
// carry every vertex's degrees of g to its new ID.
func checkRelabel(g, h *graph.Graph, p graph.Permutation) error {
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		return mismatchf("relabel changed size: %v -> %v", g, h)
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		if h.OutDegree(p[v]) != g.OutDegree(v) || h.InDegree(p[v]) != g.InDegree(v) {
			return mismatchf("relabel moved vertex %d's degrees", v)
		}
	}
	if err := h.Validate(); err != nil {
		return mismatchf("%v", err)
	}
	return nil
}

// reorderState holds the graphs and algorithms a reorder pass uses.
type reorderState struct {
	graphs map[string]*graph.Graph
	algs   map[string]reorder.Algorithm
	// first holds each cell's CRC from the first pass; later passes must
	// reproduce it.
	first map[string]uint32
	// pinned holds the committed CRCs when running at defaultSeed.
	pinned map[string]uint32
}

func setupReorder(seed uint64, tr *tracer) (*reorderState, error) {
	st := &reorderState{
		graphs: map[string]*graph.Graph{},
		algs:   map[string]reorder.Algorithm{},
		first:  map[string]uint32{},
	}
	for _, ds := range []dataset{twtrS, sks} {
		tr.do("gen."+ds.name, func() { st.graphs[ds.name] = ds.build(seed) })
	}
	tr.do("gen."+sks.name, func() { st.graphs[sks.name+".fixed"] = sks.build(fixedSeed) })
	for _, c := range reorderCells {
		if _, ok := st.algs[c.alg]; ok {
			continue
		}
		alg, err := reorder.New(c.alg)
		if err != nil {
			return nil, err
		}
		st.algs[c.alg] = alg
	}
	return st, nil
}

// pass runs every cell once and records the pass as one operation: the
// sum of the RA plus relabel calls, whose checks run outside the timed
// calls.
func (st *reorderState) pass(o *ops, tr *tracer) {
	var busy time.Duration
	var edges uint64
	ok := true
	for _, c := range reorderCells {
		d, err := st.cell(c, tr)
		if !o.call(err) {
			ok = false
			continue
		}
		busy += d
		edges += st.graphs[c.graphKey()].NumEdges()
	}
	o.sample(busy, edges, ok)
}

// cell runs one RA plus relabel and checks both outputs.
func (st *reorderState) cell(c reorderCell, tr *tracer) (time.Duration, error) {
	g := st.graphs[c.graphKey()]
	name := cellName(c.ds, c.alg)
	runtime.GC() // start every call from a collected heap
	var perm graph.Permutation
	t0 := time.Now()
	tr.do("reorder."+name, func() { perm = reorder.Perm(st.algs[c.alg], g) })
	d := time.Since(t0)

	want, haveWant := st.pinned[name]
	if !haveWant {
		want, haveWant = st.first[name]
	}
	if err := checkPerm(perm, g.NumVertices(), want, haveWant); err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	st.first[name] = permCRC(perm)

	var h *graph.Graph
	t1 := time.Now()
	tr.do("graph.relabel", func() { h = g.Relabel(perm) })
	d += time.Since(t1)
	if err := checkRelabel(g, h, perm); err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

func runReorder(ctx context.Context, cfg config, tr *tracer) (outcome, error) {
	var st *reorderState
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		st = nil
		runtime.GC() // the previous repetition's graphs are garbage
		t0 := time.Now()
		s, err := setupReorder(cfg.seed, tr)
		if err != nil {
			return outcome{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		st = s
	}
	if cfg.seed == defaultSeed {
		pinned, err := permCRCs()
		if err != nil {
			return outcome{}, err
		}
		st.pinned = pinned
	}

	var o ops
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	untraced, traced, err := passes(ctx, cfg, tr, minPasses, func(t *tracer) { st.pass(&o, t) })
	if err != nil {
		return outcome{}, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return outcome{}, err
	}
	out := o.outcome(setupS, rss)
	if cfg.trace {
		m := out.metrics
		perPass := float64(len(traced))
		for _, ds := range []dataset{twtrS, sks} {
			d, n := tr.total("gen." + ds.name)
			m["gen."+ds.name+"_s"] = d.Seconds() / float64(n)
		}
		d, n := tr.total("graph.relabel")
		m["graph.relabel_s"] = d.Seconds() / perPass
		m["graph.relabel_calls"] = float64(n) / perPass
		var edges uint64
		for _, c := range reorderCells {
			name := cellName(c.ds, c.alg)
			d, _ := tr.total("reorder." + name)
			m["reorder."+name+"_s"] = d.Seconds() / perPass
			edges += st.graphs[c.graphKey()].NumEdges()
		}
		m["reorder.edges"] = float64(edges)
		m["bench.tracing_overhead_frac"] = overhead(untraced, traced)
	}
	out.notes = append(out.notes, fmt.Sprintf("reorder: %d pass(es) of %d RA+relabel calls", len(untraced)+len(traced), len(reorderCells)))
	return out, nil
}

// writeCRCTable runs one reorder pass at defaultSeed and writes every
// cell's permutation CRC32C to path.
func writeCRCTable(path string) error {
	st, err := setupReorder(defaultSeed, newTracer(false))
	if err != nil {
		return err
	}
	var o ops
	st.pass(&o, newTracer(false))
	if o.failed > 0 {
		return fmt.Errorf("reorder pass failed: %v", o.firstErrs)
	}
	data, err := json.MarshalIndent(st.first, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
