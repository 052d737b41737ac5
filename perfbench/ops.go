package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"
)

// errMismatch marks an operation whose output failed its check, as
// opposed to one that failed to run.
var errMismatch = errors.New("output check failed")

func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

// failedLatencyMS stands for the latency of a failed operation: it
// misses any latency limit, so it sorts above every real latency.
const failedLatencyMS = 1e9

// ops accumulates the calls and timed operations of one run. An
// operation is what a user waits for: a pass over every RA cell on
// reorder, one simulated SpMV on simulate, one request on serve.
type ops struct {
	latMS []float64
	// logRates holds ln(Medges/s) of every successful operation.
	logRates  []float64
	busy      time.Duration
	attempted int
	failed    int
	incorrect int
	firstErrs []string
}

// record adds one operation that took d and processed edges, failed when
// err is non-nil.
func (o *ops) record(d time.Duration, edges uint64, err error) {
	o.sample(d, edges, o.call(err))
}

// call counts one attempted call and reports whether it succeeded.
func (o *ops) call(err error) bool {
	o.attempted++
	if err != nil {
		o.fail(err)
		return false
	}
	return true
}

// sample adds one latency sample: d and its edges when ok, else a latency
// that misses any limit.
func (o *ops) sample(d time.Duration, edges uint64, ok bool) {
	if !ok {
		o.latMS = append(o.latMS, failedLatencyMS)
		return
	}
	o.latMS = append(o.latMS, millis(d))
	o.logRates = append(o.logRates, math.Log(float64(edges)/1e6/d.Seconds()))
	o.busy += d
}

// fail counts one more failed call; checks that run after the timed
// region use it to fail calls already counted as attempted.
func (o *ops) fail(err error) {
	o.failed++
	if errors.Is(err, errMismatch) {
		o.incorrect++
	}
	if len(o.firstErrs) < 5 {
		o.firstErrs = append(o.firstErrs, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	}
}

// outcome fills the end-to-end metrics every workload shares.
func (o *ops) outcome(setupS []float64, rssMB float64) outcome {
	m := map[string]float64{
		"setup_s":      median(setupS),
		"peak_rss_mb":  rssMB,
		"p50_ms":       quantile(o.latMS, 0.50),
		"p99_ms":       quantile(o.latMS, 0.99),
		"ok_frac":      0,
		"medges_per_s": 0,
	}
	if o.attempted > 0 {
		m["ok_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
		m["bench.failed_frac"] = float64(o.failed) / float64(o.attempted)
	}
	if len(o.logRates) > 0 {
		var sum float64
		for _, l := range o.logRates {
			sum += l
		}
		m["medges_per_s"] = math.Exp(sum / float64(len(o.logRates)))
	}
	return outcome{attempted: o.attempted, failed: o.failed, incorrect: o.incorrect, metrics: m}
}

// passes runs pass until the run's time is spent: it starts another pass
// only when the last one suggests it will end within cfg.seconds, and
// always runs at least minPasses. Pass i is traced when the run is traced
// and i is odd, so a traced run pairs untraced and traced passes.
func passes(ctx context.Context, cfg config, tr *tracer, minPasses int, pass func(tr *tracer)) (untraced, traced []time.Duration, err error) {
	off := newTracer(false)
	start := time.Now()
	for i := 0; ; i++ {
		if ctx.Err() != nil {
			return untraced, traced, errDeadline
		}
		t := off
		if cfg.trace && i%2 == 1 {
			t = tr
		}
		t0 := time.Now()
		pass(t)
		d := time.Since(t0)
		if t == tr {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		if i+1 >= minPasses && time.Since(start)+d > time.Duration(cfg.seconds)*time.Second {
			return untraced, traced, nil
		}
	}
}

// overhead is the traced passes' mean wall over the untraced passes'
// mean wall, minus one.
func overhead(untraced, traced []time.Duration) float64 {
	mean := func(ds []time.Duration) float64 {
		var s time.Duration
		for _, d := range ds {
			s += d
		}
		return s.Seconds() / float64(len(ds))
	}
	if len(untraced) == 0 || len(traced) == 0 {
		return 0
	}
	return mean(traced)/mean(untraced) - 1
}
