package expt

import (
	"reflect"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/reorder"
)

// The session keys its memo, stage names and checkpoints on
// "<dataset>/<Name()>". These tests pin that two configurations never
// share a key: a session mixing configurations must report for each
// exactly what a session given that configuration alone reports.

func mustAlgs(t *testing.T, specs ...string) []reorder.Algorithm {
	t.Helper()
	algs, err := AlgorithmsFromSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	return algs
}

// TestSpecVariantsDoNotCollideInSession: go and go:window=1, random and
// random:seed=7 in one Table V run each match a fresh single-spec run.
func TestSpecVariantsDoNotCollideInSession(t *testing.T) {
	s, ds := tinySession()
	ds = ds[:1]
	specs := []string{"go", "go:window=1", "random", "random:seed=7"}
	mixed := TableV(s, ds, mustAlgs(t, specs...))
	for i, spec := range specs {
		fresh, _ := tinySession()
		alone := TableV(fresh, ds, mustAlgs(t, spec))
		if mixed[i] != alone[0] {
			t.Errorf("%s: mixed session reports %+v, alone %+v", spec, mixed[i], alone[0])
		}
	}
}

// TestResumeNeverRestoresOtherConfig: a checkpoint written for
// go:window=1 is never restored for plain go.
func TestResumeNeverRestoresOtherConfig(t *testing.T) {
	dir := t.TempDir()
	first, ds := tinySession()
	first.CacheDir = dir
	first.Reorder(ds[0], reorder.MustNew("go:window=1"))

	second, _ := tinySession()
	second.CacheDir = dir
	second.Resume = true
	def := reorder.MustNew("go")
	got := second.Reorder(ds[0], def)
	if second.Restored(ds[0], def) {
		t.Error("go restored the go:window=1 checkpoint")
	}
	fresh, _ := tinySession()
	if want := fresh.Reorder(ds[0], def); !reflect.DeepEqual(got.Perm, want.Perm) {
		t.Error("resumed go differs from a fresh go")
	}
}

// TestUserEDRDoesNotLeakIntoEDRExperiment: a user ordering with its own
// edr range must not stand in for the experiment's ro:edr=1-<hub>.
func TestUserEDRDoesNotLeakIntoEDRExperiment(t *testing.T) {
	s, ds := tinySession()
	for _, d := range ds {
		s.Reorder(d, reorder.MustNew("ro:edr=2-3"))
	}
	got := EDRExperiment(s, ds)
	fresh, _ := tinySession()
	want := EDRExperiment(fresh, ds)
	for i := range want {
		if got[i].FullMisses != want[i].FullMisses || got[i].EDRMisses != want[i].EDRMisses {
			t.Errorf("%s: misses RO %d / RO-EDR %d after a user ro:edr=2-3, want %d / %d",
				want[i].Dataset, got[i].FullMisses, got[i].EDRMisses, want[i].FullMisses, want[i].EDRMisses)
		}
	}
}

// TestCheckpointIdentityRejectsSanitizedTwin: "a+b" and "a_b" sanitize to
// one checkpoint file. With equal vertex counts only the recorded names
// tell them apart, so the second dataset must recompute, never restore.
func TestCheckpointIdentityRejectsSanitizedTwin(t *testing.T) {
	if CheckpointName("a+b", "DBG") != CheckpointName("a_b", "DBG") {
		t.Fatal("test premise: the two names no longer share a file")
	}
	dsA := NewDataset("a+b", Uniform, "", gen.ErdosRenyi(256, 2048, 1))
	dsB := NewDataset("a_b", Uniform, "", gen.ErdosRenyi(256, 2048, 2))
	if dsA.Build().NumVertices() != dsB.Build().NumVertices() {
		t.Fatal("test premise: equal vertex counts")
	}
	alg := reorder.MustNew("dbg")
	dir := t.TempDir()

	first, _ := tinySession()
	first.CacheDir = dir
	first.Reorder(dsA, alg)
	if _, err := LoadPermCheckpoint(dir, dsB.Name, alg.Name(), dsB.Build().NumVertices()); err == nil {
		t.Error("checkpoint of a+b loads as a_b")
	}

	second, _ := tinySession()
	second.CacheDir = dir
	second.Resume = true
	got := second.Reorder(dsB, alg)
	if second.Restored(dsB, alg) {
		t.Error("a_b restored the checkpoint of a+b")
	}
	if want := reorder.Perm(alg, dsB.Build()); !reflect.DeepEqual(got.Perm, want) {
		t.Error("a_b permutation is not its own")
	}
}
