package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
	"graphlocality/internal/reorder"
	"graphlocality/internal/serve"
)

// runSelftest feeds every output check a correct output, which must pass,
// and a corrupted one, which must be counted as an incorrect operation
// and make the run exit non-zero. It prints one line per case.
func runSelftest() int {
	bad := 0
	expect := func(name string, wantFail bool, err error) {
		switch {
		case wantFail && !errors.Is(err, errMismatch):
			fmt.Printf("FAIL %s: corruption not reported (got %v)\n", name, err)
			bad++
		case !wantFail && err != nil:
			fmt.Printf("FAIL %s: correct output rejected: %v\n", name, err)
			bad++
		default:
			fmt.Printf("ok   %s\n", name)
		}
	}
	g := gen.SocialNetwork(10, 8, 3)

	// Reorder: the permutation checks.
	p := reorder.Perm(reorder.MustNew("dbg"), g)
	crc := permCRC(p)
	expect("reorder: clean permutation passes", false, checkPerm(p, g.NumVertices(), crc, true))
	flipped := append(graph.Permutation(nil), p...)
	flipped[0] = flipped[1]
	expect("reorder: flipped permutation entry fails", true, checkPerm(flipped, g.NumVertices(), crc, true))
	swapped := append(graph.Permutation(nil), p...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	expect("reorder: bijection with a wrong CRC32C fails", true, checkPerm(swapped, g.NumVertices(), crc, true))
	expect("reorder: clean relabel passes", false, checkRelabel(g, g.Relabel(p), p))
	expect("reorder: relabel by another permutation fails", true, checkRelabel(g, g.Relabel(swapped), p))

	// Reorder: a wrong pinned CRC fails the cell inside a real pass.
	web := gen.WebGraph(gen.DefaultWebGraph(1<<10, 8, 3))
	st := &reorderState{
		graphs: map[string]*graph.Graph{"TwtrS": g, "SKS": web, "SKS.fixed": web},
		algs:   map[string]reorder.Algorithm{},
		first:  map[string]uint32{},
		pinned: map[string]uint32{"TwtrS.dbg": crc ^ 1},
	}
	for _, c := range reorderCells {
		st.algs[c.alg] = reorder.MustNew(c.alg)
	}
	var ro ops
	st.pass(&ro, newTracer(false))
	expect("reorder: pass with a wrong pinned CRC32C counts one incorrect call", true, runCounts(ro, 1))

	// Simulate: a perturbed miss count, inside a real pass plus the
	// reference check.
	dir, err := os.MkdirTemp(".", ".perfbench-selftest-")
	if err != nil {
		fmt.Println("FAIL simulate: temp dir:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	sg, err := newSimGraph("self", g, dir)
	if err != nil {
		fmt.Println("FAIL simulate: segment-backed copy:", err)
		return 1
	}
	defer sg.seg.Close()
	r := &simRun{graphs: []simGraph{sg}}
	var so ops
	r.pass(&so, newTracer(false))
	r.pass(&so, newTracer(false))
	r.checkReference(&so)
	expect("simulate: every config matches the reference", false, runCounts(so, 0))
	res := r.first[0][0]
	res.DestMisses = nil
	expect("simulate: missing attribution fails", true, sameSim(res, r.first[0][0]))
	seg := r.first[0][3]
	seg.Cache.Misses++
	expect("simulate: segment-backed result differing from in-RAM fails", true, segMatchesRAM(seg, r.first[0][0]))
	r.first[0][0].Cache.Misses++
	r.checkReference(&so)
	expect("simulate: perturbed miss count fails both passes of the cell", true, runCounts(so, 2))

	// Serve: a cache hit whose result differs from the first one seen.
	book := resultBook{}
	first := serveRequest{key: "job_reorder_web", code: http.StatusOK, status: serve.JobStatus{
		State: serve.StateDone, Cache: "miss", Result: &serve.JobResult{Vertices: 1024, Edges: 8000, Algorithm: "go", PermCRC32C: 42, ReorderMS: 3.5},
	}}
	hit := first
	hitRes := *first.status.Result
	hitRes.ReorderMS = 1.25 // a measurement; may differ
	hit.status.Cache, hit.status.Result = "hit", &hitRes
	expect("serve: first result passes", false, first.outcomeErr(book))
	expect("serve: equal hit passes", false, hit.outcomeErr(book))
	wrong := hitRes
	wrong.PermCRC32C++
	hit.status.Result = &wrong
	expect("serve: mismatched hit fails", true, hit.outcomeErr(book))
	hit.status.Result = nil
	expect("serve: completed job without a result fails", true, hit.outcomeErr(book))

	// An incorrect output makes the run exit non-zero.
	var eo ops
	eo.record(0, 1, nil)
	eo.record(0, 1, mismatchf("planted"))
	if out := eo.outcome([]float64{1}, 1); exitCode(out) == 0 {
		fmt.Println("FAIL exit code: an incorrect output exits 0")
		bad++
	} else {
		fmt.Println("ok   exit code: an incorrect output exits non-zero")
	}

	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		fmt.Println("FAIL BENCHMARK.json:", err)
		bad++
	} else {
		fmt.Println("ok   BENCHMARK.json lists exactly the metrics the benchmark prints")
	}
	if bad > 0 {
		fmt.Printf("selftest: %d case(s) failed\n", bad)
		return 1
	}
	fmt.Println("selftest: every check reports its corruption")
	return 0
}

// runCounts returns a mismatch error when a run counted exactly want
// incorrect operations and at least one incorrect, nil when it counted
// none and want is 0, and a plain error otherwise; so expect can treat it
// like a check result.
func runCounts(o ops, want int) error {
	switch {
	case o.incorrect != want:
		return fmt.Errorf("counted %d incorrect operations, want %d: %v", o.incorrect, want, o.firstErrs)
	case want == 0:
		return nil
	default:
		return mismatchf("%d incorrect", o.incorrect)
	}
}

// checkBenchmarkJSON compares BENCHMARK.json's metric names and units
// with the lists the benchmark prints.
func checkBenchmarkJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				return fmt.Errorf("%s[%d] is %s (%s), the benchmark prints %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", bj.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", bj.PerLayer, perLayer)
}
