package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"graphlocality/internal/serve"
)

// serveRate is the open-loop arrival rate in requests per second: half of
// the about 150 requests per second the daemon completed with this mix
// and two connections when overloaded (2-core Xeon).
const serveRate = 75

// serveTenants share the load; the daemon schedules them fairly.
var serveTenants = []string{"alice", "bob", "carol", "dave"}

// requestTimeout bounds one request on the client side, above the
// daemon's default 10 s job deadline.
const requestTimeout = 30 * time.Second

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
const clockTicks = 100

// serveRequest is one scheduled request and what became of it.
type serveRequest struct {
	due time.Duration // offset from the start of the schedule
	req serve.JobRequest
	key string // the artifact key: requests with equal keys repeat a spec

	dueAt, dispatched, sent, done time.Time
	traced                        bool
	code                          int
	status                        serve.JobStatus
	err                           error
}

// repeatShare is the share of requests that repeat an earlier spec. At
// one half the median request would sit on the edge between the store
// hits (about 2 ms) and the misses (10-60 ms) and swing from run to run.
const repeatShare = 0.7

// serveSchedule draws the seeded request schedule: one arrival every
// 1/serveRate seconds for the run's length, repeatShare of them
// repeating an earlier spec.
func serveSchedule(seed uint64, n int) []*serveRequest {
	rng := rand.New(rand.NewSource(int64(seed)))
	var pool []serve.JobRequest
	fresh := func() serve.JobRequest {
		g := serve.GraphSpec{
			Kind:       []string{"social", "web", "er"}[rng.Intn(3)],
			Scale:      11 + rng.Intn(3),
			EdgeFactor: 8,
			// Distinct per spec and per workload seed, never 0 (the
			// daemon's default).
			Seed: seed<<20 + uint64(len(pool)) + 1,
		}
		switch p := rng.Float64(); {
		case p < 0.35:
			return serve.JobRequest{Kind: serve.KindMetrics, Graph: g}
		case p < 0.70:
			return serve.JobRequest{Kind: serve.KindSimulate, Graph: g, Direction: []string{"pull", "push"}[rng.Intn(2)]}
		default:
			alg := []string{"dbg", "hubsort", "go", "ro"}[rng.Intn(4)]
			if alg == "go" || alg == "ro" {
				g.Scale = 11 // the heavy RAs take 0.1-0.3 s at scale 13
			}
			return serve.JobRequest{Kind: serve.KindReorder, Graph: g, Alg: alg}
		}
	}
	reqs := make([]*serveRequest, n)
	for i := range reqs {
		var req serve.JobRequest
		if len(pool) > 0 && rng.Float64() < repeatShare {
			req = pool[rng.Intn(len(pool))]
		} else {
			req = fresh()
			pool = append(pool, req)
		}
		req.Tenant = serveTenants[rng.Intn(len(serveTenants))]
		due := time.Duration(i+1) * time.Second / serveRate
		reqs[i] = &serveRequest{due: due, req: req, key: req.ArtifactKey()}
	}
	return reqs
}

// daemon is a running `localitylab serve` child.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    *addrWriter
	exited chan error // receives cmd.Wait's result once
}

// addrWriter collects the daemon's standard error and reports the listen
// address once the daemon prints it.
type addrWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found bool
	addr  chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		if _, rest, ok := strings.Cut(w.buf.String(), "serving on "); ok {
			if line, _, ok := strings.Cut(rest, "\n"); ok {
				w.found = true
				w.addr <- line
			}
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon starts the daemon on a free port with a fresh store in
// cacheDir and returns once it answers its health check.
func startDaemon(ctx context.Context, bin, cacheDir string) (*daemon, error) {
	w := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-workers", "2", "-cachedir", cacheDir)
	cmd.Stderr = w
	// The daemon dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	d := &daemon{cmd: cmd, log: w, exited: exited}
	fail := func(err error) (*daemon, error) {
		_ = cmd.Process.Kill() // already failing; the exit status adds nothing
		<-exited
		return nil, fmt.Errorf("%w; daemon log:\n%s", err, w.String())
	}
	select {
	case d.addr = <-w.addr:
	case err := <-exited:
		return nil, fmt.Errorf("daemon exited before serving: %v; log:\n%s", err, w.String())
	case <-time.After(10 * time.Second):
		return fail(fmt.Errorf("daemon printed no address within 10s"))
	case <-ctx.Done():
		return fail(errDeadline)
	}
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get("http://" + d.addr + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("daemon not healthy within 10s: %v", err))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes too long.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has exited
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuMS reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuMS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat line %q", data)
	}
	return (utime + stime) * 1000 / clockTicks, nil
}

// connections caps the client at one synchronous connection per core.
func connections() int { return min(2, runtime.NumCPU()) }

// drive sends the schedule open-loop: a generator hands each request to
// the connections when it is due, whether or not earlier ones finished.
// When tracing, every other request records spans, so the untraced half
// measures the tracing overhead.
func drive(ctx context.Context, addr string, reqs []*serveRequest, tracing bool) {
	queue := make(chan *serveRequest, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	for c := 0; c < connections(); c++ {
		client := &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for r := range queue {
				send(ctx, client, addr, r)
			}
		}()
	}
	start := time.Now()
	for i, r := range reqs {
		r.dueAt = start.Add(r.due)
		if wait := time.Until(r.dueAt); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		r.dispatched = time.Now()
		r.traced = tracing && i%2 == 1
		queue <- r
	}
	close(queue)
	wg.Wait()
}

// send runs one synchronous request; once the run is out of time a
// request is abandoned or not sent, and counts as failed.
func send(ctx context.Context, client *http.Client, addr string, r *serveRequest) {
	r.sent = time.Now()
	defer func() { r.done = time.Now() }()
	if ctx.Err() != nil {
		r.err = errDeadline
		return
	}
	body, err := json.Marshal(r.req)
	if err != nil {
		r.err = err
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.code = resp.StatusCode
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		r.err = err
		return
	}
	if r.code == http.StatusOK || r.code == http.StatusGatewayTimeout || r.code == http.StatusInternalServerError {
		if err := json.Unmarshal(data, &r.status); err != nil {
			r.err = fmt.Errorf("decode job status: %w", err)
		}
	}
}

// resultBook remembers the first result seen for every spec; every later
// result of that spec, from the store or computed again, must equal it.
type resultBook map[string]serve.JobResult

func (b resultBook) check(key string, st serve.JobStatus) error {
	if st.Result == nil {
		return mismatchf("%s: completed job has no result", key)
	}
	res := *st.Result
	res.ReorderMS = 0 // a measurement, not a fact of the spec
	first, ok := b[key]
	if !ok {
		b[key] = res
		return nil
	}
	if res != first {
		return mismatchf("%s: %s result %+v differs from the first %+v", key, st.Cache, res, first)
	}
	return nil
}

// outcomeErr classifies a finished request: nil for a completed job with
// a correct result.
func (r *serveRequest) outcomeErr(book resultBook) error {
	switch {
	case r.err != nil:
		return fmt.Errorf("request: %w", r.err)
	case r.code != http.StatusOK:
		return fmt.Errorf("%s: HTTP %d %s", r.key, r.code, r.status.Error)
	case r.status.State != serve.StateDone:
		return fmt.Errorf("%s: job state %q", r.key, r.status.State)
	}
	return book.check(r.key, r.status)
}

func runServe(ctx context.Context, cfg config, tr *tracer) (outcome, error) {
	if _, err := os.Stat(localitylab); err != nil {
		return outcome{}, fmt.Errorf("serve needs the localitylab binary: %w", err)
	}
	dir, err := os.MkdirTemp(buildDir, "serve-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)

	// Set up several times; each start gets a fresh store. The last
	// daemon serves the run. A start takes a few milliseconds, so more
	// repeats keep the median steady.
	var d *daemon
	var setupS []float64
	for i := 0; i < 3*setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		d, err = startDaemon(ctx, localitylab, filepath.Join(dir, fmt.Sprintf("store%d", i)))
		if err != nil {
			return outcome{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer d.stop()

	reqs := serveSchedule(cfg.seed, serveRate*cfg.seconds)
	cpu0, err := d.cpuMS()
	if err != nil {
		return outcome{}, err
	}
	drive(ctx, d.addr, reqs, cfg.trace)
	cpu1, err := d.cpuMS()
	if err != nil {
		return outcome{}, err
	}
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return outcome{}, err
	}

	// Check results in the order they completed, so "first" is the first
	// result a client saw.
	byDone := append([]*serveRequest(nil), reqs...)
	sort.SliceStable(byDone, func(i, j int) bool { return byDone[i].done.Before(byDone[j].done) })
	book := resultBook{}
	var o ops
	okReq := make(map[*serveRequest]bool, len(reqs))
	for _, r := range byDone {
		if err := r.outcomeErr(book); err != nil {
			o.record(0, 0, err)
			continue
		}
		okReq[r] = true
		o.record(r.done.Sub(r.dueAt), r.status.Result.Edges, nil)
	}
	out := o.outcome(setupS, rss)
	var late time.Duration
	for _, r := range reqs {
		late = max(late, r.dispatched.Sub(r.dueAt))
	}
	if late > time.Second/serveRate {
		out.notes = append(out.notes, fmt.Sprintf("WARNING serve: the generator fell behind schedule by up to %.1f ms", millis(late)))
	}
	out.notes = append(out.notes, fmt.Sprintf("serve: %d requests at %d/s over %d connections", len(reqs), serveRate, connections()))
	if cfg.trace {
		serveLayers(out.metrics, reqs, okReq, tr, late, (cpu1-cpu0)/float64(max(1, len(okReq))))
	}
	return out, nil
}

// serveLayers fills the serve workload's per-layer metrics.
func serveLayers(m map[string]float64, reqs []*serveRequest, ok map[*serveRequest]bool, tr *tracer, late time.Duration, cpuPerJob float64) {
	byName := map[string][]float64{}
	var shed, deadline, failed, hits float64
	var traced, untraced []float64
	for i, r := range reqs {
		lat := millis(r.done.Sub(r.dueAt))
		if r.traced {
			req := tr.add("serve.request", 0, i+1, r.dueAt, r.done)
			tr.add("serve.client_wait", req, i+1, r.dueAt, r.sent)
			tr.add("serve.http", req, i+1, r.sent, r.done)
		}
		switch {
		case r.code == http.StatusTooManyRequests:
			shed++
		case r.code == http.StatusGatewayTimeout:
			deadline++
		case !ok[r]:
			failed++
		}
		if !ok[r] {
			continue
		}
		if r.traced {
			traced = append(traced, lat)
		} else {
			untraced = append(untraced, lat)
		}
		if r.status.Cache == "hit" {
			hits++
			byName["hit"] = append(byName["hit"], lat)
		} else {
			byName["miss"] = append(byName["miss"], lat)
		}
		byName[string(r.req.Kind)] = append(byName[string(r.req.Kind)], lat)
		byName["server"] = append(byName["server"], r.status.ElapsedMS)
		byName["http"] = append(byName["http"], millis(r.done.Sub(r.sent))-r.status.ElapsedMS)
		byName["wait"] = append(byName["wait"], millis(r.sent.Sub(r.dueAt)))
	}
	completed := float64(len(ok))
	m["serve.hit_p50_ms"] = median(byName["hit"])
	m["serve.miss_p50_ms"] = median(byName["miss"])
	m["serve.metrics_p50_ms"] = median(byName[string(serve.KindMetrics)])
	m["serve.reorder_p50_ms"] = median(byName[string(serve.KindReorder)])
	m["serve.simulate_p50_ms"] = median(byName[string(serve.KindSimulate)])
	m["serve.server_elapsed_p50_ms"] = median(byName["server"])
	m["serve.http_p50_ms"] = median(byName["http"])
	m["serve.client_wait_p50_ms"] = median(byName["wait"])
	m["serve.daemon_cpu_ms_per_job"] = cpuPerJob
	m["serve.hit_ratio"] = hits / max(1, completed)
	m["serve.completed"] = completed
	m["serve.shed"] = shed
	m["serve.deadline"] = deadline
	m["serve.failed"] = failed
	m["serve.late_ms"] = millis(late)
	if late > time.Second/serveRate {
		m["serve.behind_schedule"] = 1
	}
	if u := median(untraced); u > 0 {
		m["bench.tracing_overhead_frac"] = median(traced)/u - 1
	}
}
