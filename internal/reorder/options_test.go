package reorder

import (
	"context"
	"errors"
	"strings"
	"testing"

	"graphlocality/internal/gen"
)

func TestNewUnknownAlgorithm(t *testing.T) {
	_, err := New("nope")
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "known:") {
		t.Errorf("error should name the algorithm and list known ones: %v", err)
	}
}

func TestNewRejectsUnknownOption(t *testing.T) {
	_, err := New("go:seed=3")
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("go accepted a seed option it does not consume: %v", err)
	}
	if oe.Option != OptSeed || !strings.Contains(err.Error(), "accepts: window") {
		t.Errorf("error should name the offending option and the accepted ones: %v", err)
	}
	if _, err := New("identity:cachebytes=1"); !errors.As(err, &oe) {
		t.Errorf("identity accepted cachebytes: %v", err)
	}
	// The key check runs before any value is read, so a bad value for an
	// unaccepted key still reports the key.
	if _, err := New("sb++:cachebytes=x"); !errors.As(err, &oe) || oe.Value != "" {
		t.Errorf("sb++:cachebytes=x = %v, want a not-accepted *OptionError", err)
	}
}

func TestRegisterDuplicateErrors(t *testing.T) {
	factory := plain(Identity{})
	if err := Register(Registration{Name: "identity", New: factory}); err == nil {
		t.Error("duplicate canonical name accepted")
	}
	// A fresh name whose alias collides with an existing key must also fail
	// and must not leave a half-registered entry behind.
	if err := Register(Registration{Name: "brandnew-x", Aliases: []string{"gorder"}, New: factory}); err == nil {
		t.Error("alias collision accepted")
	}
	if _, err := New("brandnew-x"); err == nil {
		t.Error("failed registration left the canonical name resolvable")
	}
	if err := Register(Registration{Name: "", New: factory}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(Registration{Name: "brandnew-y"}); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestListCoversBuiltins(t *testing.T) {
	names := List()
	want := []string{"bfs", "dbg", "degsort", "go", "hubcluster", "hubsort",
		"hybrid", "identity", "random", "rcm", "ro", "sb", "sb++"}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("List() missing %q", w)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("List() not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

func TestOptionsReachFactories(t *testing.T) {
	gw := MustNew("go:window=8").(*GOrder)
	if gw.Window != 8 || gw.Name() != "GO[window=8]" {
		t.Errorf("window not applied: %+v (%s)", gw, gw.Name())
	}
	ro := MustNew("ro:edr=2-50").(*RabbitOrder)
	if ro.MinDegree != 2 || ro.MaxDegree != 50 || ro.Name() != "RO[edr=2-50]" {
		t.Errorf("EDR options not applied: %+v (%s)", ro, ro.Name())
	}
	sb := MustNew("sb:cachebytes=512").(*SlashBurn)
	if sb.CacheBytes != 512 || sb.Name() != "SB[cachebytes=512]" {
		t.Errorf("cachebytes option not applied: %+v (%s)", sb, sb.Name())
	}
	roCA := MustNew("ro:cachebytes=256").(*RabbitOrder)
	if roCA.MaxCommunitySize != 256/8 || roCA.Name() != "RO[cachebytes=256]" {
		t.Errorf("MaxCommunitySize = %d (%s), want %d", roCA.MaxCommunitySize, roCA.Name(), 256/8)
	}
	// Explicit defaults build the default configuration and its name.
	for spec, want := range map[string]string{
		"go:window=5": "GO", "ro:edr=0-0,cachebytes=0": "RO", "sb:cachebytes=0": "SB",
		"random:seed=1": "Random", "hybrid:window=5": "RO+GO",
	} {
		if got := MustNew(spec).Name(); got != want {
			t.Errorf("%s: Name = %q, want %q", spec, got, want)
		}
	}
}

func TestRandomSeedOption(t *testing.T) {
	g := gen.Ring(128)
	def := Perm(MustNew("random"), g)
	one := Perm(Random{Seed: 1}, g)
	if !equalPerm(def, one) {
		t.Error("default random seed is not 1")
	}
	other := Perm(MustNew("random:seed=42"), g)
	if equalPerm(def, other) {
		t.Error("random:seed=42 did not change the shuffle")
	}
}

// TestCheapAlgorithmsIgnoreContext: the combinatorial orderings have no
// cancellation points, so even a dead context yields a full permutation.
func TestCheapAlgorithmsIgnoreContext(t *testing.T) {
	g := gen.Ring(32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{Random{Seed: 1}, DegreeSort{}, HubSort{}, HubCluster{},
		DBG{}, RCM{}, BFSOrder{}, Boba{}} {
		perm, err := alg.Reorder(ctx, g)
		if err != nil {
			t.Fatalf("%s returned error: %v", alg.Name(), err)
		}
		if err := perm.Validate(); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on unknown algorithm")
		}
	}()
	MustNew("definitely-not-registered")
}
