// Command perfbench is the repository's benchmark. It runs one workload
// (reorder, simulate or serve) for a fixed time, checks every output the
// program produces, and prints the metrics as one JSON object on the last
// line of standard output.
//
// It is normally started through run.py, which builds it and the
// localitylab binary from the checkout first:
//
//	python3 perfbench/run.py --workload reorder --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured from spans the benchmark
// records around its calls into the program. README.md in this directory
// describes every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// defaultSeed is the seed whose reorder permutations are pinned by
// perm_crc32c.json.
const defaultSeed = 1

// hardLimit bounds one run: a run still going by then stops its work,
// stops the serve daemon and exits non-zero.
const hardLimit = 170 * time.Second

// setupRepeats is how many times the reorder and simulate workloads set
// up; setup_s is the median of these.
const setupRepeats = 3

// buildDir holds the binaries run.py builds, scratch files and trace
// output, inside the checkout.
const buildDir = ".bench_build"

// localitylab is the binary the serve workload starts.
const localitylab = buildDir + "/localitylab"

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int
	failed    int
	// incorrect counts failed operations whose output did not match its
	// check; any makes the run incorrect and the exit code non-zero.
	incorrect int
	metrics   map[string]float64
	// notes are printed as comment lines before the result.
	notes []string
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceFlag int
	var selftest, updateCRC bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: reorder, simulate or serve")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "seed of the generated inputs and the request schedule")
	flag.IntVar(&cfg.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.BoolVar(&selftest, "selftest", false, "show that every output check reports a corrupted output as a failure")
	flag.BoolVar(&updateCRC, "update-crc", false, "rewrite perfbench/perm_crc32c.json from a reorder pass at the default seed")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if selftest {
		return runSelftest()
	}
	if updateCRC {
		if err := writeCRCTable("perfbench/perm_crc32c.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want reorder, simulate or serve)\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	fp := fingerprint(cfg)
	fpJSON, _ := json.Marshal(fp) // plain struct of strings and numbers
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# fingerprint %s\n", fpJSON)

	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	tr := newTracer(cfg.trace)
	out, err := w(ctx, cfg, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		path := fmt.Sprintf("%s/trace-%s-%d.json", buildDir, cfg.workload, cfg.seed)
		if err := tr.write(path, fp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	return report(cfg, out)
}

// report prints the metrics of the run's mode, then the result line, and
// returns the exit code: non-zero when any output check failed.
func report(cfg config, out outcome) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   out.incorrect == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, n := range out.notes {
		fmt.Println("# " + n)
	}
	for _, d := range defs {
		v := out.metrics[d.name] // a layer the workload does not use reads 0
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %16.6f %s\n", d.name, v, d.unit)
	}
	fmt.Printf("# attempted=%d failed=%d incorrect=%d\n", out.attempted, out.failed, out.incorrect)
	line, err := json.Marshal(res)
	if err != nil { // a NaN or Inf value
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return exitCode(out)
}

// exitCode is non-zero when any output failed its check.
func exitCode(out outcome) int {
	if out.incorrect > 0 {
		return 1
	}
	return 0
}

type workloadFunc func(ctx context.Context, cfg config, tr *tracer) (outcome, error)

var workloads = map[string]workloadFunc{
	"reorder":  runReorder,
	"simulate": runSimulate,
	"serve":    runServe,
}

// errDeadline reports a run that hit hardLimit.
var errDeadline = errors.New("run exceeded its time limit")

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by the nearest-rank method on a
// sorted copy (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
