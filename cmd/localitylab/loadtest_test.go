package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphlocality/internal/serve"
)

// TestLoadtestFailsOnFailedRequests pins the loadtest exit contract: a
// request that neither completes, sheds nor hits its deadline fails the
// command, and -out still records the result as JSON.
func TestLoadtestFailsOnFailedRequests(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	out := filepath.Join(t.TempDir(), "loadtest.json")

	err := cmdLoadtest([]string{"-url", ts.URL, "-n", "3", "-c", "1", "-out", out})
	if err == nil || !strings.Contains(err.Error(), "3 request(s) failed") {
		t.Fatalf("err = %v, want 3 failed requests", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res serve.LoadtestResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Total != 3 || res.Failed != 3 || res.Completed != 0 {
		t.Fatalf("written result %+v, want total 3, failed 3", res)
	}
}
