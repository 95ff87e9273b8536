package spgemm

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/tiling"
)

// TestOptionsConfigMapping pins the public-to-internal translation: a
// silent mismapping here would make every public knob lie about what it
// tunes.
func TestOptionsConfigMapping(t *testing.T) {
	o := Defaults()
	cfg := o.config()
	if cfg.Iteration != core.Hybrid || cfg.Accumulator != accum.AutoKind ||
		cfg.Tiling != tiling.FlopBalanced || cfg.Schedule != sched.Dynamic ||
		cfg.Tiles != 2048 || cfg.MarkerBits != 32 || cfg.Kappa != 1 {
		t.Errorf("defaults mapped wrong: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		mutate func(*Options)
		check  func(core.Config) bool
		name   string
	}{
		{func(o *Options) { o.Iteration = IterVanilla }, func(c core.Config) bool { return c.Iteration == core.Vanilla }, "vanilla"},
		{func(o *Options) { o.Iteration = IterMaskLoad }, func(c core.Config) bool { return c.Iteration == core.MaskLoad }, "maskload"},
		{func(o *Options) { o.Iteration = IterCoIter }, func(c core.Config) bool { return c.Iteration == core.CoIter }, "coiter"},
		{func(o *Options) { o.Accumulator = AccDense }, func(c core.Config) bool { return c.Accumulator == accum.DenseKind }, "dense"},
		{func(o *Options) { o.Accumulator = AccHash }, func(c core.Config) bool { return c.Accumulator == accum.HashKind }, "hash"},
		{func(o *Options) { o.Tiling = TileUniform }, func(c core.Config) bool { return c.Tiling == tiling.Uniform }, "uniform"},
		{func(o *Options) { o.Schedule = SchedStatic }, func(c core.Config) bool { return c.Schedule == sched.Static }, "static"},
		{func(o *Options) { o.Schedule = SchedGuided }, func(c core.Config) bool { return c.Schedule == sched.Guided }, "guided"},
		{func(o *Options) { o.Workers = 3 }, func(c core.Config) bool { return c.Workers == 3 }, "workers"},
		{func(o *Options) { o.Kappa = 0.25 }, func(c core.Config) bool { return c.Kappa == 0.25 }, "kappa"},
		{func(o *Options) { o.MarkerBits = 8 }, func(c core.Config) bool { return c.MarkerBits == 8 }, "marker"},
		{func(o *Options) { o.Tiles = 77 }, func(c core.Config) bool { return c.Tiles == 77 }, "tiles"},
	}
	for _, c := range cases {
		o := Defaults()
		c.mutate(&o)
		if !c.check(o.config()) {
			t.Errorf("%s: option did not map", c.name)
		}
		// fromConfig inverts config on the subset it exports (what
		// PredictOptions hands back to callers).
		back := fromConfig(o.config())
		if back.Iteration != o.Iteration || back.Accumulator != o.Accumulator ||
			back.Tiling != o.Tiling || back.Schedule != o.Schedule ||
			back.Kappa != o.Kappa || back.MarkerBits != o.MarkerBits ||
			back.Tiles != o.Tiles || back.Workers != o.Workers {
			t.Errorf("%s: fromConfig(config()) = %+v, want %+v", c.name, back, o)
		}
	}
}

// optionsFields is the size of the option surface: every exported field
// is one more dimension of the configuration lattice the tests and the
// benchmark must cover, so adding one is a decision, recorded here and
// in docs/TUNING.md, not a side effect.
const optionsFields = 19

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
