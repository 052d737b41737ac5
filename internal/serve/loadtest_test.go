package serve

import (
	"context"
	"testing"
	"time"
)

func TestLoadtestAgainstLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("loadtest is seconds of real compute")
	}
	_, ts := newTestServer(t, Config{Workers: 2, CacheDir: t.TempDir()})

	res, err := Loadtest(context.Background(), LoadtestOptions{
		BaseURL:     ts.URL,
		Requests:    28, // 4 passes over the 7-entry mix
		Concurrency: 4,
		DeadlineMS:  20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 28 {
		t.Fatalf("Total = %d, want 28", res.Total)
	}
	if res.Completed == 0 {
		t.Fatal("no request completed")
	}
	if res.Failed != 0 {
		t.Fatalf("%d requests failed outright: %s", res.Failed, res.String())
	}
	// Identical specs repeat across passes, so the store must hit.
	if res.CacheHits == 0 {
		t.Fatalf("no cache hits across repeated identical specs: %s", res.String())
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.Max < res.P99 {
		t.Fatalf("latency ordering broken: p50 %v p99 %v max %v", res.P50, res.P99, res.Max)
	}
}

func TestLoadtestResultRates(t *testing.T) {
	r := LoadtestResult{Total: 10, Completed: 8, Shed: 2, CacheHits: 4,
		P50: 5 * time.Millisecond, P99: 20 * time.Millisecond, Max: 30 * time.Millisecond}
	if got := r.CompletionRate(); got != 0.8 {
		t.Fatalf("CompletionRate = %v", got)
	}
	if got := r.ShedRate(); got != 0.2 {
		t.Fatalf("ShedRate = %v", got)
	}
	if got := r.CacheHitRate(); got != 0.5 {
		t.Fatalf("CacheHitRate = %v", got)
	}
	var zero LoadtestResult
	if zero.CompletionRate() != 0 || zero.ShedRate() != 0 || zero.CacheHitRate() != 0 {
		t.Fatal("zero-value rates must not divide by zero")
	}
	if zero.String() == "" || r.String() == "" {
		t.Fatal("String() empty")
	}
}
