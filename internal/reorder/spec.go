package reorder

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec is a parsed algorithm specification — the one construction grammar
// every surface shares (CLI -alg flags, expt grids, serve job requests):
//
//	name
//	name:key=value,key=value,...
//
// e.g. "ro", "go:window=7", "ro:edr=2-100,cachebytes=65536",
// "brew:detect=louvain,hub=hs,dense=ro,else=dbg,resolution=1.0".
//
// Each registration lists the keys it accepts; the registry rejects any
// other key before the algorithm's factory sees the spec. Build with New,
// which parses and constructs in one step; ParseSpec exposes the grammar
// alone (serve uses it to canonicalize artifact keys).
type Spec struct {
	// Name is the algorithm name as written (canonical name or alias).
	Name string
	// Params are the key=value parameters in input order; keys are
	// unique.
	Params []Param
}

// Param is one key=value spec parameter.
type Param struct{ Key, Value string }

// Spec keys shared by several algorithms. OptEDR values use the form
// "min-max" ("2-100"; max 0 = unbounded above).
const (
	OptSeed       = "seed"
	OptWindow     = "window"
	OptEDR        = "edr"
	OptCacheBytes = "cachebytes"
)

// SpecError reports a malformed spec string (grammar-level: empty name,
// bad key/value shape, duplicate keys). Errors about what the named
// algorithm accepts surface as *UnknownAlgorithmError or *OptionError
// from New instead.
type SpecError struct {
	Spec   string
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("reorder: invalid spec %q: %s", e.Spec, e.Reason)
}

// validSpecName reports whether s is a plausible algorithm name: the
// registry's names use letters, digits and "+._-".
func validSpecName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '+', r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// validSpecToken reports whether s works as a parameter key or value:
// non-empty, and free of the grammar's structural characters (':', ',',
// '=') and whitespace.
func validSpecToken(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '+', r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// ParseSpec parses an algorithm spec string. It validates the grammar
// only; whether the name exists and the parameters are meaningful is
// New's job (so parsing stays total over the registry's lifetime).
func ParseSpec(s string) (Spec, error) {
	in := strings.TrimSpace(s)
	name, rest, hasParams := strings.Cut(in, ":")
	if !validSpecName(name) {
		return Spec{}, &SpecError{Spec: s, Reason: "missing or malformed algorithm name"}
	}
	spec := Spec{Name: name}
	if !hasParams {
		return spec, nil
	}
	if rest == "" {
		return Spec{}, &SpecError{Spec: s, Reason: "trailing ':' with no parameters"}
	}
	seen := make(map[string]bool)
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, &SpecError{Spec: s, Reason: fmt.Sprintf("parameter %q is not key=value", kv)}
		}
		if !validSpecToken(key) {
			return Spec{}, &SpecError{Spec: s, Reason: fmt.Sprintf("malformed parameter key %q", key)}
		}
		if !validSpecToken(val) {
			return Spec{}, &SpecError{Spec: s, Reason: fmt.Sprintf("malformed value %q for key %q", val, key)}
		}
		if seen[key] {
			return Spec{}, &SpecError{Spec: s, Reason: fmt.Sprintf("duplicate key %q", key)}
		}
		seen[key] = true
		spec.Params = append(spec.Params, Param{Key: key, Value: val})
	}
	return spec, nil
}

// Get returns the value of key and whether it was present.
func (s Spec) Get(key string) (string, bool) {
	for _, p := range s.Params {
		if p.Key == key {
			return p.Value, true
		}
	}
	return "", false
}

// Canonical renders the spec in canonical form: the registry's canonical
// algorithm name (aliases resolved when the name is known) followed by
// the parameters sorted by key. Two specs describing the same computation
// canonicalize identically, which is what lets artifact stores and memo
// caches key on it.
func (s Spec) Canonical() string {
	name := s.Name
	if info, ok := Lookup(name); ok {
		name = info.Name
	}
	if len(s.Params) == 0 {
		return name
	}
	params := append([]Param(nil), s.Params...)
	sort.Slice(params, func(i, j int) bool { return params[i].Key < params[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte(':')
	for i, p := range params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.Key)
		b.WriteByte('=')
		b.WriteString(p.Value)
	}
	return b.String()
}

// String implements fmt.Stringer as the canonical form.
func (s Spec) String() string { return s.Canonical() }

// uintParam returns key's value as an unsigned integer, or def when the
// spec does not set key.
func (s Spec) uintParam(key string, def uint64) (uint64, error) {
	v, ok := s.Get(key)
	if !ok {
		return def, nil
	}
	u, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, &OptionError{Alg: s.Name, Option: key, Value: v, Reason: "want an unsigned integer"}
	}
	return u, nil
}

// intParam returns key's value as an integer of at least min, or def when
// the spec does not set key.
func (s Spec) intParam(key string, def, min int) (int, error) {
	v, ok := s.Get(key)
	if !ok {
		return def, nil
	}
	i, err := strconv.Atoi(v)
	if err != nil || i < min {
		return 0, &OptionError{Alg: s.Name, Option: key, Value: v,
			Reason: fmt.Sprintf("want an integer >= %d", min)}
	}
	return i, nil
}

// edrParam returns the OptEDR degree range "min-max" (max 0 = unbounded
// above), or 0-0 (unrestricted) when the spec does not set it.
func (s Spec) edrParam() (lo, hi uint32, err error) {
	v, ok := s.Get(OptEDR)
	if !ok {
		return 0, 0, nil
	}
	minStr, maxStr, ok := strings.Cut(v, "-")
	if !ok {
		return 0, 0, &OptionError{Alg: s.Name, Option: OptEDR, Value: v,
			Reason: `want "min-max" (max 0 = unbounded)`}
	}
	min64, err1 := strconv.ParseUint(minStr, 10, 32)
	max64, err2 := strconv.ParseUint(maxStr, 10, 32)
	if err1 != nil || err2 != nil {
		return 0, 0, &OptionError{Alg: s.Name, Option: OptEDR, Value: v,
			Reason: "degree bounds must be unsigned 32-bit integers"}
	}
	if max64 != 0 && min64 > max64 {
		return 0, 0, &OptionError{Alg: s.Name, Option: OptEDR, Value: v,
			Reason: "degree range is empty (min > max)"}
	}
	return uint32(min64), uint32(max64), nil
}

// nameParam is one parameter of an algorithm's Name: its spec key, its
// value in this configuration and its value in the default one.
type nameParam struct{ key, value, def string }

// label renders an algorithm's identity: the bare label for the default
// configuration, else "label[k=v,...]" over the non-default parameters in
// the order given. Two configurations that can produce different
// permutations must render differently, since the expt session keys its
// memo, stages and checkpoints on Name.
func label(base string, params ...nameParam) string {
	var parts []string
	for _, p := range params {
		if p.value != p.def {
			parts = append(parts, p.key+"="+p.value)
		}
	}
	if len(parts) == 0 {
		return base
	}
	return base + "[" + strings.Join(parts, ",") + "]"
}
