package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadtestOptions drives Loadtest.
type LoadtestOptions struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Requests is the total request count (default 200).
	Requests int
	// Concurrency is the number of client goroutines (default 16).
	Concurrency int
	// DeadlineMS is stamped on every request (default 5000).
	DeadlineMS int
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Progress, when non-nil, receives a line every ~100 requests.
	Progress func(done, total int)
}

func (o LoadtestOptions) withDefaults() LoadtestOptions {
	if o.Requests <= 0 {
		o.Requests = 200
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 16
	}
	if o.DeadlineMS <= 0 {
		o.DeadlineMS = 5000
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 2 * time.Duration(o.DeadlineMS) * time.Millisecond}
	}
	return o
}

// LoadtestResult aggregates one load-test run. Latencies cover the full
// synchronous request (admission wait + execution + transport).
type LoadtestResult struct {
	Total     int `json:"total"`
	Completed int `json:"completed"` // 200 with a result payload
	Shed      int `json:"shed"`      // clean 429s
	Deadline  int `json:"deadline"`  // 504 deadline exceeded
	Failed    int `json:"failed"`    // 5xx/4xx other than shed/deadline, transport errors
	CacheHits int `json:"cache_hits"`

	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`
}

// CompletionRate is completed / total.
func (r LoadtestResult) CompletionRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Total)
}

// ShedRate is shed / total.
func (r LoadtestResult) ShedRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Total)
}

// CacheHitRate is cache hits / completed.
func (r LoadtestResult) CacheHitRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.Completed)
}

// mixedWorkload is the request mix the load test replays: the bimodal
// shape the motivation names — cheap metrics probes and lightweight RAs
// (DBG, HubSort) interleaved with heavier simulations and Gorder — over
// a handful of distinct specs so the artifact store sees both dedup hits
// and cold misses.
func mixedWorkload() []JobRequest {
	return []JobRequest{
		{Kind: KindMetrics, Graph: GraphSpec{Kind: "er", Scale: 9, EdgeFactor: 8}},
		{Kind: KindMetrics, Graph: GraphSpec{Kind: "web", Scale: 10, EdgeFactor: 8}},
		{Kind: KindReorder, Graph: GraphSpec{Kind: "social", Scale: 10, EdgeFactor: 8}, Alg: "dbg"},
		{Kind: KindReorder, Graph: GraphSpec{Kind: "social", Scale: 10, EdgeFactor: 8}, Alg: "hubsort"},
		{Kind: KindReorder, Graph: GraphSpec{Kind: "web", Scale: 10, EdgeFactor: 8}, Alg: "go"},
		{Kind: KindSimulate, Graph: GraphSpec{Kind: "er", Scale: 9, EdgeFactor: 8}},
		{Kind: KindSimulate, Graph: GraphSpec{Kind: "social", Scale: 9, EdgeFactor: 8}, Alg: "dbg"},
	}
}

// Loadtest replays Requests synchronous jobs from Concurrency client
// goroutines against a running daemon, with per-request deadlines and a
// tenant per goroutine (so the fair scheduler is actually exercised),
// and aggregates latency and outcome statistics.
func Loadtest(ctx context.Context, opts LoadtestOptions) (LoadtestResult, error) {
	opts = opts.withDefaults()
	if opts.BaseURL == "" {
		return LoadtestResult{}, fmt.Errorf("serve: loadtest needs a base URL")
	}
	mix := mixedWorkload()

	var (
		mu        sync.Mutex
		res       = LoadtestResult{Total: opts.Requests}
		latencies = make([]time.Duration, 0, opts.Requests)
		done      int
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			tenant := fmt.Sprintf("lt-%02d", worker)
			for i := range work {
				req := mix[i%len(mix)]
				req.Tenant = tenant
				req.DeadlineMS = opts.DeadlineMS
				outcome, hit, lat := fireOne(ctx, opts, req)
				mu.Lock()
				switch outcome {
				case "completed":
					res.Completed++
					if hit {
						res.CacheHits++
					}
					latencies = append(latencies, lat)
				case "shed":
					res.Shed++
				case "deadline":
					res.Deadline++
				default:
					res.Failed++
				}
				done++
				if opts.Progress != nil && done%100 == 0 {
					opts.Progress(done, opts.Requests)
				}
				mu.Unlock()
			}
		}(w)
	}
	for i := 0; i < opts.Requests; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			i = opts.Requests // stop feeding; drain below
		}
	}
	close(work)
	wg.Wait()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		res.P50 = latencies[n/2]
		res.P99 = latencies[min(n-1, n*99/100)]
		res.Max = latencies[n-1]
	}
	return res, ctx.Err()
}

// fireOne issues one synchronous job request and classifies the outcome.
func fireOne(ctx context.Context, opts LoadtestOptions, req JobRequest) (outcome string, cacheHit bool, lat time.Duration) {
	body, err := json.Marshal(req)
	if err != nil {
		return "failed", false, 0
	}
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, opts.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "failed", false, 0
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := opts.Client.Do(hreq)
	if err != nil {
		return "failed", false, 0
	}
	defer resp.Body.Close()
	lat = time.Since(start)
	var st JobStatus
	dec := json.NewDecoder(resp.Body)
	_ = dec.Decode(&st) // error bodies decode to zero JobStatus; status code rules
	switch resp.StatusCode {
	case http.StatusOK:
		if st.Result == nil {
			return "failed", false, lat
		}
		return "completed", st.Cache == "hit", lat
	case http.StatusTooManyRequests:
		return "shed", false, lat
	case http.StatusGatewayTimeout:
		return "deadline", false, lat
	default:
		return "failed", false, lat
	}
}

// String renders the human summary line.
func (r LoadtestResult) String() string {
	return fmt.Sprintf("%d requests: %d completed, %d shed (%.1f%%), %d deadline, %d failed; p50 %v p99 %v; cache hit %.1f%%",
		r.Total, r.Completed, r.Shed, 100*r.ShedRate(), r.Deadline, r.Failed,
		r.P50.Round(time.Millisecond), r.P99.Round(time.Millisecond), 100*r.CacheHitRate())
}
