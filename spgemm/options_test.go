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
// tunes. The zero Options is the recommended configuration
// core.DefaultConfig states, field for field, and Defaults is the zero
// Options.
func TestOptionsConfigMapping(t *testing.T) {
	if cfg, want := (Options{}).config(), core.DefaultConfig(); cfg != want {
		t.Errorf("Options{} mapped to %+v, want %+v", cfg, want)
	}
	if Defaults() != (Options{}) {
		t.Errorf("Defaults() = %+v, want the zero Options", Defaults())
	}

	cases := []struct {
		mutate func(*Options)
		check  func(core.Config) bool
		name   string
	}{
		{func(o *Options) { o.Workers = 3 }, func(c core.Config) bool { return c.Workers == 3 }, "workers"},
	}
	for _, c := range cases {
		var o Options
		c.mutate(&o)
		if !c.check(o.config()) {
			t.Errorf("%s: option did not map", c.name)
		}
	}
}

// TestZeroOptionsRunDefaults: MxM, TriangleCount, KTruss and TRSV give
// the same results under the zero Options as under Defaults.
func TestZeroOptionsRunDefaults(t *testing.T) {
	a := RandomGraph("rmat", 256, 7)
	l := triMatrix(t, 256, true, 3)
	b := rhs(256)
	for name, run := range map[string]func(Options) (any, error){
		"MxM": func(o Options) (any, error) {
			c, err := MxM(a, a, a, o)
			if err != nil {
				return nil, err
			}
			return c.csr, nil
		},
		"TriangleCount": func(o Options) (any, error) { return TriangleCount(a, o) },
		"KTruss": func(o Options) (any, error) {
			tr, rounds, err := KTruss(a, 4, o)
			if err != nil {
				return nil, err
			}
			return [2]any{tr.csr, rounds}, nil
		},
		"TRSV": func(o Options) (any, error) { return TRSV(l, b, TriLower, o) },
	} {
		t.Run(name, func(t *testing.T) {
			zero, err := run(Options{})
			if err != nil {
				t.Fatalf("under Options{}: %v", err)
			}
			def, err := run(Defaults())
			if err != nil {
				t.Fatalf("under Defaults(): %v", err)
			}
			if !reflect.DeepEqual(zero, def) {
				t.Errorf("%v under Options{}, %v under Defaults()", zero, def)
			}
		})
	}
}

// optionsFields and engineConfigFields are the size of the option
// surface: every exported field is one more dimension of the
// configuration lattice the tests and the benchmark must cover, so
// adding one is a decision, recorded here and in the docs, not a side
// effect.
const (
	optionsFields      = 9
	engineConfigFields = 2
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
