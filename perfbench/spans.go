package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program.
// Spans are kept in memory and written out when the run ends. A tracer
// that is off records nothing and costs one branch per call.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans of one serve request share Request.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Request int     `json:"request,omitempty"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// add records a finished span and returns its id (0 when tracing is off).
func (t *tracer) add(name string, parent, request int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartMS: millis(start.Sub(t.t0)), EndMS: millis(end.Sub(t.t0)),
	})
	return id
}

// do runs fn inside a top-level span named name.
func (t *tracer) do(name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.add(name, 0, 0, start, time.Now())
}

// total returns the summed duration and count of the spans named name.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			ms += s.EndMS - s.StartMS
			n++
		}
	}
	return time.Duration(ms * 1e6), n
}

// write saves the spans with the machine fingerprint as JSON.
func (t *tracer) write(path string, fp machine) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Machine machine `json:"machine"`
		Spans   []span  `json:"spans"`
	}{fp, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
