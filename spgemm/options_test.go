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

// optionsFields is the size of the option surface: every exported field
// is one more dimension of the configuration lattice the tests and the
// benchmark must cover, so adding one is a decision, recorded here and
// in docs/TUNING.md, not a side effect.
const optionsFields = 14

// TestOptionsDocumented fails when an exported Options field is missing
// from the knob table of docs/TUNING.md, or when the field count moves.
func TestOptionsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../docs/TUNING.md")
	if err != nil {
		t.Fatal(err)
	}
	_, tldr, ok := strings.Cut(string(doc), "\n## TL;DR\n")
	if !ok {
		t.Fatal("docs/TUNING.md has no TL;DR section")
	}
	tldr, _, _ = strings.Cut(tldr, "\n## ")
	var table strings.Builder
	for _, line := range strings.Split(tldr, "\n") {
		if strings.HasPrefix(line, "|") {
			table.WriteString(line + "\n")
		}
	}
	exported := 0
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		exported++
		if !regexp.MustCompile("`" + f.Name + `\b`).MatchString(table.String()) {
			t.Errorf("Options.%s is not in the knob table of docs/TUNING.md", f.Name)
		}
	}
	if exported != optionsFields {
		t.Errorf("Options has %d exported fields, want %d: update optionsFields and docs/TUNING.md deliberately",
			exported, optionsFields)
	}
}
