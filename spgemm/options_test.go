package spgemm

import (
	"fmt"
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
const optionsFields = 13

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

// TestRungKeepsKappa pins what the retry ladder may change: a degraded
// rung narrows the execution path (workers, then the engine) but keeps
// the algebra, the static κ and Fuse, which no retried entry point
// reads, so every rung computes the same product under the same Eq. 3
// decisions.
func TestRungKeepsKappa(t *testing.T) {
	o := Defaults()
	o.Kappa = 0.3
	o.Workers = 4
	o.Fuse = true
	o.Semiring = SRPlusPair
	o.Engine = NewEngine(EngineConfig{})
	for try := 0; try <= 2; try++ {
		t.Run(fmt.Sprintf("rung%d", try), func(t *testing.T) {
			r := o.rung(try)
			if r.Kappa != o.Kappa || r.Semiring != o.Semiring || r.Tiles != o.Tiles {
				t.Fatalf("rung %d changed κ/semiring/tiles: %v/%v/%d", try, r.Kappa, r.Semiring, r.Tiles)
			}
			wantWorkers := 1
			if try == 0 {
				wantWorkers = 4
			}
			if r.Workers != wantWorkers {
				t.Errorf("workers = %d, want %d", r.Workers, wantWorkers)
			}
			if !r.Fuse || (r.Engine != nil) != (try < 2) {
				t.Errorf("fuse=%v engine=%v at rung %d", r.Fuse, r.Engine != nil, try)
			}
			noDegrade := o
			noDegrade.Retry.NoDegrade = true
			if nd := noDegrade.rung(try); nd.Workers != 4 || !nd.Fuse || nd.Engine == nil {
				t.Errorf("NoDegrade rung %d narrowed the path: %+v", try, nd)
			}
		})
	}
}
