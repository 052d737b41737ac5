package reorder

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestParseSpecValid(t *testing.T) {
	cases := []struct {
		in   string
		name string
		want []Param
	}{
		{"ro", "ro", nil},
		{"  ro  ", "ro", nil},
		{"go:window=7", "go", []Param{{"window", "7"}}},
		{"sb++", "sb++", nil},
		{"ro:edr=2-100,cachebytes=65536", "ro",
			[]Param{{"edr", "2-100"}, {"cachebytes", "65536"}}},
		{"brew:detect=louvain,hub=hs,dense=ro,else=dbg,resolution=1.0", "brew",
			[]Param{{"detect", "louvain"}, {"hub", "hs"}, {"dense", "ro"},
				{"else", "dbg"}, {"resolution", "1.0"}}},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if s.Name != c.name {
			t.Errorf("ParseSpec(%q).Name = %q, want %q", c.in, s.Name, c.name)
		}
		if len(s.Params) != len(c.want) {
			t.Errorf("ParseSpec(%q).Params = %v, want %v", c.in, s.Params, c.want)
			continue
		}
		for i, p := range c.want {
			if s.Params[i] != p {
				t.Errorf("ParseSpec(%q).Params[%d] = %v, want %v", c.in, i, s.Params[i], p)
			}
		}
	}
}

func TestParseSpecInvalid(t *testing.T) {
	cases := []string{
		"",                     // empty
		"   ",                  // whitespace only
		":window=7",            // missing name
		"go:",                  // trailing colon
		"go:window",            // not key=value
		"go:window=",           // empty value
		"go:=7",                // empty key
		"go:window=7,",         // trailing comma -> empty param
		"go:window=7,window=9", // duplicate key
		"go:a b=c",             // whitespace in key
		"go:a=b c",             // whitespace in value
		"g o",                  // whitespace in name
		"go:k==v",              // '=' in value
		"ro:edr=2:100",         // ':' in value splits grammar
	}
	for _, c := range cases {
		if _, err := ParseSpec(c); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", c)
		} else {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Errorf("ParseSpec(%q) error %T, want *SpecError", c, err)
			}
		}
	}
}

func TestSpecCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ro", "ro"},
		{"rabbit", "ro"}, // alias resolves
		{"gorder:window=7", "go:window=7"},
		{"ro:cachebytes=65536,edr=2-100", "ro:cachebytes=65536,edr=2-100"},
		{"ro:edr=2-100,cachebytes=65536", "ro:cachebytes=65536,edr=2-100"},
		{"unknownalg:b=2,a=1", "unknownalg:a=1,b=2"}, // unknown names pass through
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got := s.Canonical(); got != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.want)
		}
		// Canonical form must re-parse to the same canonical form.
		s2, err := ParseSpec(s.Canonical())
		if err != nil {
			t.Fatalf("ParseSpec(Canonical(%q)): %v", c.in, err)
		}
		if s2.Canonical() != s.Canonical() {
			t.Errorf("canonicalization not idempotent for %q", c.in)
		}
	}
}

func TestSpecNewGenericOptions(t *testing.T) {
	alg, err := New("go:window=9")
	if err != nil || alg.Name() != "GO[window=9]" {
		t.Fatalf("go:window=9 -> %v, %v", alg, err)
	}
	if g, ok := alg.(*GOrder); !ok || g.Window != 9 {
		t.Fatalf("window not applied: %#v", alg)
	}
	alg, err = New("ro:edr=2-100")
	if err != nil {
		t.Fatalf("ro:edr=2-100: %v", err)
	}
	if ro, ok := alg.(*RabbitOrder); !ok || ro.MinDegree != 2 || ro.MaxDegree != 100 {
		t.Fatalf("edr not applied: %#v", alg)
	}
	alg, err = New("random:seed=42")
	if err != nil {
		t.Fatalf("random:seed=42: %v", err)
	}
	if r, ok := alg.(Random); !ok || r.Seed != 42 || alg.Name() != "Random[seed=42]" {
		t.Fatalf("seed not applied: %#v (%s)", alg, alg.Name())
	}
	// Cache sizes below one 8-byte entry leave Rabbit-Order uncapped, so
	// the configuration (and its name) is the default one.
	if alg := MustNew("ro:cachebytes=7"); alg.Name() != "RO" {
		t.Errorf("ro:cachebytes=7 Name = %q, want RO", alg.Name())
	}
	// A cache of 2^32+1 entries clamps to the largest cap instead of
	// wrapping around to a one-vertex cap.
	if ro := MustNew("ro:cachebytes=34359738376").(*RabbitOrder); ro.MaxCommunitySize != math.MaxUint32 {
		t.Errorf("ro:cachebytes=8*(2^32+1) MaxCommunitySize = %d, want %d", ro.MaxCommunitySize, uint32(math.MaxUint32))
	}
}

func TestSpecNewErrors(t *testing.T) {
	var ua *UnknownAlgorithmError
	if _, err := New("nope"); !errors.As(err, &ua) {
		t.Errorf("unknown name error = %v, want *UnknownAlgorithmError", err)
	}

	var oe *OptionError
	// Value errors: malformed or out of range, each naming its option.
	for spec, option := range map[string]string{
		"go:window=tiny":      OptWindow,
		"go:window=0":         OptWindow,
		"go:window=-3":        OptWindow,
		"hybrid:window=0":     OptWindow,
		"ro:edr=9-3":          OptEDR, // empty degree range
		"ro:edr=wide":         OptEDR,
		"ro:edr=1-x":          OptEDR,
		"ro:edr=1-4294967296": OptEDR, // max beyond 32 bits
		"ro:cachebytes=-8":    OptCacheBytes,
		"sb:cachebytes=big":   OptCacheBytes,
		"random:seed=-1":      OptSeed,
	} {
		if _, err := New(spec); !errors.As(err, &oe) {
			t.Errorf("%s: error = %v, want *OptionError", spec, err)
		} else if oe.Option != option || oe.Value == "" {
			t.Errorf("%s: error %q names option %q, want a value error for %q", spec, oe, oe.Option, option)
		}
	}
	// Keys the algorithm does not accept.
	for spec, option := range map[string]string{
		"identity:window=3": OptWindow,
		"go:detect=louvain": "detect",
		"sb++:cachebytes=8": OptCacheBytes,
		"degsort:seed=1":    OptSeed,
	} {
		if _, err := New(spec); !errors.As(err, &oe) {
			t.Errorf("%s: error = %v, want *OptionError", spec, err)
		} else if oe.Option != option || oe.Value != "" || !strings.Contains(oe.Error(), "accepts:") {
			t.Errorf("%s: error %q, want a not-accepted error for %q", spec, oe, option)
		}
	}
	// Parse errors propagate through New.
	var se *SpecError
	if _, err := New("go:window=7,"); !errors.As(err, &se) {
		t.Errorf("trailing comma error = %v, want *SpecError", err)
	}
}

// FuzzParseSpec checks that ParseSpec never panics, and that every spec it
// accepts round-trips: Canonical() re-parses to an equal canonical form.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"ro",
		"go:window=7",
		"sb++",
		"ro:edr=2-100,cachebytes=65536",
		"brew:detect=louvain,hub=hs,dense=ro,else=dbg,resolution=1.0",
		"brew:detect=none",
		"hybrid",
		"  identity  ",
		":broken",
		"go:",
		"go:window",
		"go:window=7,window=9",
		"go:k==v",
		"x:a=1,b=2,c=3,d=4,e=5",
		"gorder:window=3",
		"random:seed=7",
		"ro:cachebytes=4096,edr=2-50",
		"brew:seed=0,hub=hs,dense=degree",
		"boba:workers=2,seed=5",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("ParseSpec(%q) error %T, want *SpecError", in, err)
			}
			return
		}
		if s.Name == "" {
			t.Fatalf("ParseSpec(%q) accepted with empty name", in)
		}
		seen := map[string]bool{}
		for _, p := range s.Params {
			if p.Key == "" || p.Value == "" {
				t.Fatalf("ParseSpec(%q) accepted empty key/value: %v", in, s.Params)
			}
			if seen[p.Key] {
				t.Fatalf("ParseSpec(%q) accepted duplicate key %q", in, p.Key)
			}
			seen[p.Key] = true
		}
		canon := s.Canonical()
		s2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("Canonical %q of accepted spec %q does not re-parse: %v", canon, in, err)
		}
		if got := s2.Canonical(); got != canon {
			t.Fatalf("canonicalization not idempotent: %q -> %q -> %q", in, canon, got)
		}
		// New must never panic regardless of what the fuzzer invents, and
		// whatever it builds, the canonical spec builds under the same
		// name: artifact stores key on Canonical, sessions on Name.
		alg, err := New(in)
		if err != nil {
			return
		}
		alg2, err := New(canon)
		if err != nil {
			t.Fatalf("New(%q) succeeded but New(Canonical %q) failed: %v", in, canon, err)
		}
		if alg.Name() != alg2.Name() {
			t.Fatalf("New(%q).Name() = %q but New(%q).Name() = %q", in, alg.Name(), canon, alg2.Name())
		}
	})
}
