package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json; the self-test checks that they do.
type metricDef struct{ name, unit string }

// endToEnd metrics are measured with tracing off. Every workload measures
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"medges_per_s", "Medges/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
}

// perLayer metrics come from a traced run. A workload that does no work
// in a layer reports 0 for it.
var perLayer = []metricDef{
	{"gen.TwtrS_s", "s"},
	{"gen.SKS_s", "s"},
	{"gen.UKS_s", "s"},
	{"gen.UnifS_s", "s"},
	{"graph.relabel_s", "s"},
	{"graph.relabel_calls", "count"},
	{"reorder.TwtrS.dbg_s", "s"},
	{"reorder.TwtrS.hubsort_s", "s"},
	{"reorder.TwtrS.rcm_s", "s"},
	{"reorder.TwtrS.sb_s", "s"},
	{"reorder.TwtrS.sbpp_s", "s"},
	{"reorder.TwtrS.go_s", "s"},
	{"reorder.TwtrS.ro_s", "s"},
	{"reorder.SKS.dbg_s", "s"},
	{"reorder.SKS.hubsort_s", "s"},
	{"reorder.SKS.rcm_s", "s"},
	{"reorder.SKS.sb_s", "s"},
	{"reorder.SKS.sbpp_s", "s"},
	{"reorder.SKS.go_s", "s"},
	{"reorder.SKS.ro_s", "s"},
	{"reorder.SKS.brew_s", "s"},
	{"reorder.edges", "count"},
	{"core.simulate.pull_attrib_s", "s"},
	{"core.simulate.push_s", "s"},
	{"core.simulate.pull_tlb_s", "s"},
	{"core.simulate.segcsr_s", "s"},
	{"core.sim_ns_per_access", "ns"},
	{"core.simulate_maccess_per_s", "Macc/s"},
	{"trace.columns_s", "s"},
	{"cachesim.access_batch_s", "s"},
	{"cachesim.accesses", "count"},
	{"cachesim.misses", "count"},
	{"cachesim.writebacks", "count"},
	{"cachesim.tlb_misses", "count"},
	{"cachesim.miss_rate", "frac"},
	{"core.ecs_snapshots", "count"},
	{"segcsr.peak_resident_bytes", "bytes"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.metrics_p50_ms", "ms"},
	{"serve.reorder_p50_ms", "ms"},
	{"serve.simulate_p50_ms", "ms"},
	{"serve.server_elapsed_p50_ms", "ms"},
	{"serve.http_p50_ms", "ms"},
	{"serve.client_wait_p50_ms", "ms"},
	{"serve.daemon_cpu_ms_per_job", "ms"},
	{"serve.hit_ratio", "frac"},
	{"serve.completed", "count"},
	{"serve.shed", "count"},
	{"serve.deadline", "count"},
	{"serve.failed", "count"},
	{"serve.late_ms", "ms"},
	{"serve.behind_schedule", "count"},
	{"bench.failed_frac", "frac"},
	{"bench.tracing_overhead_frac", "frac"},
}

// machine is the fingerprint stamped on every benchmark output, so two
// figures are only compared knowingly.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
}

func fingerprint(cfg config) machine {
	return machine{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the code under test: the git revision when the
// checkout is a repository, else a digest of its Go sources (a benchmark
// checkout is usually a plain copy of the tree).
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return "git:" + strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from /proc.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(v, "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
