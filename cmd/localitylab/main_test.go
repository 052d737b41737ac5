package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphlocality/internal/expt"
	"graphlocality/internal/gen"
	"graphlocality/internal/trace"
)

func TestParseDirection(t *testing.T) {
	cases := map[string]trace.Direction{
		"pull": trace.Pull, "push": trace.Push, "pushread": trace.PushRead,
	}
	for name, want := range cases {
		got, err := parseDirection(name)
		if err != nil || got != want {
			t.Errorf("parseDirection(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseDirection("sideways"); err == nil {
		t.Error("bad direction accepted")
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	g := gen.Ring(100)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := saveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	h, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Error("file round trip changed the graph")
	}
	if _, err := loadGraph(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDatasetFromFile(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(2048, 8, 3))
	path := filepath.Join(t.TempDir(), "web.bin")
	if err := saveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	ds, err := datasetFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Kind != expt.WebGraph {
		t.Errorf("kind = %v, want WG", ds.Kind)
	}
	if ds.Build().NumEdges() != g.NumEdges() {
		t.Error("dataset graph differs")
	}
	if _, err := datasetFromFile("/does/not/exist"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestExperimentRejectsDuplicateGraphNames: datasets from -graphs are
// named by base name and the session memoizes graphs by name, so two files
// with one base name must be a usage error naming both, not a table whose
// second row silently shows the first graph.
func TestExperimentRejectsDuplicateGraphNames(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a", "g.bin")
	b := filepath.Join(dir, "b", "g.bin")
	for i, path := range []string{a, b} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := saveGraph(gen.Ring(uint32(64*(i+1))), path); err != nil {
			t.Fatal(err)
		}
	}
	err := cmdExperiment([]string{"table1", "-size", "tiny", "-graphs", a + "," + b})
	if got := exitCode(err); got != 2 {
		t.Fatalf("exit code %d (err %v), want 2", got, err)
	}
	if !strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) {
		t.Errorf("error %q should name both paths", err)
	}
}

func TestHelpersOnSuite(t *testing.T) {
	ds := expt.Suite(expt.Tiny)
	if len(socialOnly(ds)) == 0 {
		t.Error("socialOnly empty")
	}
	if len(contrastOnly(ds)) < 2 {
		t.Error("contrastOnly incomplete")
	}
	s, w, err := contrastPair(ds)
	if err != nil || s.Kind != expt.SocialNetwork || w.Kind != expt.WebGraph {
		t.Errorf("contrastPair = %v %v %v", s.Kind, w.Kind, err)
	}
	if _, _, err := contrastPair(nil); err == nil {
		t.Error("empty suite should fail")
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
