package spgemm

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"maskedspgemm/internal/core"
)

// TestOptionsConfigMapping pins the public-to-internal translation: a
// silent mismapping here would make every public knob lie about what it
// tunes, and the knobs Options does not carry must be the recommended
// configuration core.DefaultConfig states.
func TestOptionsConfigMapping(t *testing.T) {
	cfg, want := Defaults().config(), core.DefaultConfig()
	if cfg.Iteration != want.Iteration || cfg.Accumulator != want.Accumulator ||
		cfg.MarkerBits != want.MarkerBits || cfg.Tiling != want.Tiling ||
		cfg.Schedule != want.Schedule || cfg.Tiles != want.Tiles || cfg.Kappa != want.Kappa {
		t.Errorf("defaults mapped to %+v, want %+v", cfg, want)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		mutate func(*Options)
		check  func(core.Config) bool
		name   string
	}{
		{func(o *Options) { o.Workers = 3 }, func(c core.Config) bool { return c.Workers == 3 }, "workers"},
		{func(o *Options) { o.Kappa = 0.25 }, func(c core.Config) bool { return c.Kappa == 0.25 }, "kappa"},
		{func(o *Options) { o.Tiles = 77 }, func(c core.Config) bool { return c.Tiles == 77 }, "tiles"},
	}
	for _, c := range cases {
		o := Defaults()
		c.mutate(&o)
		if !c.check(o.config()) {
			t.Errorf("%s: option did not map", c.name)
		}
	}
}

// optionsFields and engineConfigFields are the size of the option
// surface: every exported field is one more dimension of the
// configuration lattice the tests and the benchmark must cover, so
// adding one is a decision, recorded here and in the docs, not a side
// effect.
const (
	optionsFields      = 11
	engineConfigFields = 3
)

// TestOptionsDocumented fails when an exported Options field is missing
// from the knob tables of docs/TUNING.md, or when the field count moves.
func TestOptionsDocumented(t *testing.T) {
	checkFieldsDocumented(t, reflect.TypeOf(Options{}), optionsFields,
		"../docs/TUNING.md", "\n## TL;DR\n", "`")
}

// TestEngineConfigDocumented is the same pin for EngineConfig against
// the knob table of docs/ARCHITECTURE.md's engine section, where a
// field is named inside the `EngineConfig{...}` of its row.
func TestEngineConfigDocumented(t *testing.T) {
	checkFieldsDocumented(t, reflect.TypeOf(EngineConfig{}), engineConfigFields,
		"../docs/ARCHITECTURE.md", "\n### Knobs\n", "`[^`|]*")
}

// checkFieldsDocumented requires every exported field of typ to appear
// in the tables of the doc section that starts at heading (up to the
// next heading), written as prefix followed by the field name, and the
// exported field count to equal want.
func checkFieldsDocumented(t *testing.T, typ reflect.Type, want int, path, heading, prefix string) {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), heading)
	if !ok {
		t.Fatalf("%s has no %q section", path, strings.TrimSpace(heading))
	}
	section, _, _ = strings.Cut(section, "\n#")
	var table strings.Builder
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			table.WriteString(line + "\n")
		}
	}
	exported := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		exported++
		if !regexp.MustCompile(prefix + `\b` + f.Name + `\b`).MatchString(table.String()) {
			t.Errorf("%s.%s is not in the knob table of %s", typ.Name(), f.Name, path)
		}
	}
	if exported != want {
		t.Errorf("%s has %d exported fields, want %d: update the count and %s deliberately",
			typ.Name(), exported, want, path)
	}
}
