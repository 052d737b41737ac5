package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"graphlocality/internal/expt"
	"graphlocality/internal/perf"
)

// cmdBenchPipeline times the simulation stack itself: cachesim and trace
// microbenchmarks plus batched-vs-scalar SimulateSpMV macro runs over the
// experiment dataset suite, written as a perf.Report. The committed
// BENCH_pipeline.json is the baseline `bench diff` gates CI against.
func cmdBenchPipeline(args []string) error {
	fs := flag.NewFlagSet("bench pipeline", flag.ExitOnError)
	sizeName := fs.String("size", "standard", "dataset scale: tiny or standard")
	out := fs.String("out", "BENCH_pipeline.json", "output JSON path")
	repeats := fs.Int("repeats", 3, "timing repetitions per benchmark (minimum is reported)")
	fs.Parse(args)
	size := expt.Standard
	if *sizeName == "tiny" {
		size = expt.Tiny
	}

	var workloads []perf.Workload
	for _, d := range expt.Suite(size) {
		workloads = append(workloads, perf.Workload{Name: d.Name, Graph: d.Build()})
	}
	opts := perf.Options{
		Repeats: *repeats,
		Suite:   *sizeName,
		Progress: func(name string, ns float64) {
			fmt.Fprintf(os.Stderr, "localitylab: bench %-28s %12.0f ns/op\n", name, ns)
		},
	}
	report, err := perf.Pipeline(workloads, opts)
	if err != nil {
		return err
	}
	if err := perf.WriteFile(*out, report); err != nil {
		return err
	}
	for _, s := range report.Speedups {
		fmt.Printf("%-28s %6.2fx\n", s.Name, s.Speedup)
	}
	fmt.Printf("min speedup %.2fx -> %s\n", report.MinSpeedup(), *out)
	return nil
}

// cmdBenchMulticore sweeps the boba parallel ordering across worker
// counts, timing each under a matching GOMAXPROCS and cross-checking every
// row against boba's serial pass, so the report is simultaneously a
// scaling measurement and a bit-exactness proof. boba is the one parallel
// kernel whose scaling pays on real cores; the simulator itself runs
// serially. The committed BENCH_multicore.json is the baseline `bench diff`
// gates scaling erosion against on multicore runners.
func cmdBenchMulticore(args []string) error {
	fs := flag.NewFlagSet("bench multicore", flag.ExitOnError)
	sizeName := fs.String("size", "standard", "dataset scale: tiny or standard")
	out := fs.String("out", "BENCH_multicore.json", "output JSON path")
	repeats := fs.Int("repeats", 3, "timing repetitions per benchmark (minimum is reported)")
	workersFlag := fs.String("workers", "", "comma-separated worker counts (default: 1,2 then doubling to NumCPU)")
	fs.Parse(args)
	size := expt.Standard
	if *sizeName == "tiny" {
		size = expt.Tiny
	}
	counts := perf.DefaultWorkerCounts()
	if *workersFlag != "" {
		counts = counts[:0]
		for _, f := range strings.Split(*workersFlag, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || w < 1 {
				return usagef("bench multicore: bad -workers entry %q", f)
			}
			counts = append(counts, w)
		}
	}

	var workloads []perf.Workload
	for _, d := range expt.Suite(size) {
		workloads = append(workloads, perf.Workload{Name: d.Name, Graph: d.Build()})
	}
	report := perf.Report{Schema: perf.SchemaVersion, Suite: *sizeName, GoMaxProcs: runtime.NumCPU()}
	opts := perf.Options{
		Repeats: *repeats,
		Suite:   *sizeName,
		Progress: func(name string, ns float64) {
			fmt.Fprintf(os.Stderr, "localitylab: bench %-36s %12.0f ns/op\n", name, ns)
		},
	}
	if err := perf.Multicore(&report, workloads, counts, opts); err != nil {
		return err
	}
	if err := perf.WriteFile(*out, report); err != nil {
		return err
	}
	for _, s := range report.Speedups {
		fmt.Printf("%-36s %6.2fx\n", s.Name, s.Speedup)
	}
	fmt.Printf("min speedup %.2fx (NumCPU %d) -> %s\n", report.MinSpeedup(), runtime.NumCPU(), *out)
	return nil
}

// cmdBenchDiff compares a current bench report against a committed
// baseline under a multiplicative tolerance and fails (exit 1) on any
// regression — the CI gate for the batched fast path.
func cmdBenchDiff(args []string) error {
	fs := flag.NewFlagSet("bench diff", flag.ExitOnError)
	tolerance := fs.Float64("tolerance", 1.5, "allowed slowdown/erosion factor (>= 1)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return usagef("bench diff needs two report paths: baseline current")
	}
	baseline, err := perf.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	current, err := perf.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	regs, err := perf.Diff(baseline, current, *tolerance)
	if err != nil {
		return err
	}
	if len(regs) == 0 {
		fmt.Printf("bench diff: %d benchmarks, %d speedups within %.2fx of %s\n",
			len(baseline.Benchmarks), len(baseline.Speedups), *tolerance, fs.Arg(0))
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "localitylab: "+r.String())
	}
	return fmt.Errorf("bench diff: %d regression(s) beyond %.2fx tolerance", len(regs), *tolerance)
}
