package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// faultAccum decorates an accumulator with a hook that fires at every
// BeginRow — the injection point for panics and cancellations that the
// fault-containment tests drive through the full kernel stack.
type faultAccum struct {
	inner      accum.Accumulator[float64]
	onBeginRow func()
}

func (f *faultAccum) BeginRow() {
	f.onBeginRow()
	f.inner.BeginRow()
}
func (f *faultAccum) LoadMask(cols []sparse.Index)     { f.inner.LoadMask(cols) }
func (f *faultAccum) Update(j sparse.Index, x float64) { f.inner.Update(j, x) }
func (f *faultAccum) UpdateMasked(j sparse.Index, x float64) bool {
	return f.inner.UpdateMasked(j, x)
}
func (f *faultAccum) Scatter(aik float64, cols []sparse.Index, vals []float64) {
	f.inner.Scatter(aik, cols, vals)
}
func (f *faultAccum) ScatterMasked(aik float64, cols []sparse.Index, vals []float64) int {
	return f.inner.ScatterMasked(aik, cols, vals)
}
func (f *faultAccum) Gather(maskCols []sparse.Index, cols []sparse.Index, vals []float64) ([]sparse.Index, []float64) {
	return f.inner.Gather(maskCols, cols, vals)
}

// runWrapped computes A ⊙ (A × A) through the shared run protocol with
// every worker's accumulator decorated by wrap.
func runWrapped(
	sr semiring.PlusTimes[float64], a *sparse.CSR[float64], cfg Config,
	wrap func(accum.Accumulator[float64]) accum.Accumulator[float64],
) (*sparse.CSR[float64], error) {
	p := newProduct(sr, a, a, a, cfg)
	p.wrap = wrap
	return p.run(cfg.Context)
}

// TestKernelPanicContained injects a panic into a worker mid-tile for
// every scheduling policy and requires the kernel to return ErrPanic —
// with the original panic value recoverable via errors.As — instead of
// crashing the process.
func TestKernelPanicContained(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	a := randMatrix(120, 120, 0.08, r)
	sr := semiring.PlusTimes[float64]{}
	for _, policy := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
		cfg := DefaultConfig()
		cfg.Schedule = policy
		cfg.Tiles = 16
		cfg.Workers = 4
		var rows atomic.Int32
		_, err := runWrapped(sr, a, cfg, func(inner accum.Accumulator[float64]) accum.Accumulator[float64] {
			return &faultAccum{inner: inner, onBeginRow: func() {
				if rows.Add(1) == 7 {
					panic("injected kernel fault")
				}
			}}
		})
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("%v: err = %v, want ErrPanic", policy, err)
		}
		var pe *sched.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%v: error chain lacks *sched.PanicError: %v", policy, err)
		}
		if pe.Value != "injected kernel fault" {
			t.Fatalf("%v: panic value not preserved: %v", policy, pe.Value)
		}
	}
}

// TestKernelCancelMidRun cancels the context from inside a worker and
// requires ErrCanceled, matching both the sentinel and the context
// package's error.
func TestKernelCancelMidRun(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	a := randMatrix(150, 150, 0.08, r)
	sr := semiring.PlusTimes[float64]{}
	for _, policy := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := DefaultConfig()
		cfg.Schedule = policy
		cfg.Tiles = 16
		cfg.Workers = 4
		cfg.Context = ctx
		var rows atomic.Int32
		_, err := runWrapped(sr, a, cfg, func(inner accum.Accumulator[float64]) accum.Accumulator[float64] {
			return &faultAccum{inner: inner, onBeginRow: func() {
				if rows.Add(1) == 5 {
					cancel()
				}
			}}
		})
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: err = %v, want ErrCanceled", policy, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v does not match context.Canceled", policy, err)
		}
	}
}

// TestKernelPreCancelled checks every kernel formulation rejects an
// already-cancelled context without doing any work.
func TestKernelPreCancelled(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	a := randMatrix(40, 40, 0.2, r)
	sr := semiring.PlusTimes[float64]{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	cfg.Context = ctx

	if _, err := MaskedSpGEMM[float64](sr, a, a, a, cfg); !errors.Is(err, ErrCanceled) {
		t.Fatalf("MaskedSpGEMM: %v, want ErrCanceled", err)
	}
	if _, err := MaskedSpGEMMComp[float64](sr, nil, a, a, a, cfg); !errors.Is(err, ErrCanceled) {
		t.Fatalf("MaskedSpGEMMComp: %v, want ErrCanceled", err)
	}
	if _, err := Prepare(a, a, a, cfg); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Prepare: %v, want ErrCanceled", err)
	}
}

// TestPreparedReusableAfterCancel requires that a cancelled run leaves
// the engine's cached plan and pool fully intact: the next uncancelled
// call must produce a result bit-identical to a never-cancelled
// reference.
func TestPreparedReusableAfterCancel(t *testing.T) {
	r := rand.New(rand.NewSource(204))
	a := randMatrix(100, 100, 0.1, r)
	sr := semiring.PlusTimes[float64]{}
	cfg := DefaultConfig()
	cfg.Tiles = 8
	cfg.Workers = 2

	ref, err := MaskedSpGEMM[float64](sr, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = exec.New(exec.Config{})
	multiply, _, err := prepared(a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	canceled := cfg
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled.Context = ctx
	for i := 0; i < 3; i++ {
		if _, err := MaskedSpGEMM[float64](sr, a, a, a, canceled); !errors.Is(err, ErrCanceled) {
			t.Fatalf("cancelled multiply %d: %v, want ErrCanceled", i, err)
		}
	}
	if err := cfg.Engine.SelfCheck(); err != nil {
		t.Fatalf("pool invariants violated after cancelled runs: %v", err)
	}
	for i := 0; i < 3; i++ {
		got, err := multiply()
		if err != nil {
			t.Fatalf("reuse after cancel %d: %v", i, err)
		}
		if !sparse.Equal(ref, got) {
			t.Fatalf("reuse after cancel %d: result differs from reference", i)
		}
	}
}

// TestConfigValidateRejects drives every invalid enum value and
// out-of-range knob through Validate and requires an ErrConfig-wrapped
// rejection — the guarantee that the panic sites in sched, tiling,
// accum and the kernel dispatch are unreachable for validated configs.
func TestConfigValidateRejects(t *testing.T) {
	mutate := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"iteration -1", mutate(func(c *Config) { c.Iteration = IterationSpace(-1) })},
		{"iteration 99", mutate(func(c *Config) { c.Iteration = IterationSpace(99) })},
		{"accumulator -1", mutate(func(c *Config) { c.Accumulator = accum.Kind(-1) })},
		{"accumulator 99", mutate(func(c *Config) { c.Accumulator = accum.Kind(99) })},
		{"accumulator past Auto", mutate(func(c *Config) { c.Accumulator = accum.AutoKind + 1 })},
		{"marker bits 0", mutate(func(c *Config) { c.MarkerBits = 0 })},
		{"marker bits 7", mutate(func(c *Config) { c.MarkerBits = 7 })},
		{"marker bits 128", mutate(func(c *Config) { c.MarkerBits = 128 })},
		{"schedule -1", mutate(func(c *Config) { c.Schedule = sched.Policy(-1) })},
		{"schedule 99", mutate(func(c *Config) { c.Schedule = sched.Policy(99) })},
		{"tiling -1", mutate(func(c *Config) { c.Tiling = tiling.Strategy(-1) })},
		{"tiling 99", mutate(func(c *Config) { c.Tiling = tiling.Strategy(99) })},
		{"tiles 0", mutate(func(c *Config) { c.Tiles = 0 })},
		{"tiles negative", mutate(func(c *Config) { c.Tiles = -5 })},
		{"hybrid kappa 0", mutate(func(c *Config) { c.Kappa = 0 })},
		{"hybrid kappa negative", mutate(func(c *Config) { c.Kappa = -1 })},
		{"workers negative", mutate(func(c *Config) { c.Workers = -1 })},
	}
	r := rand.New(rand.NewSource(205))
	a := randMatrix(10, 10, 0.3, r)
	sr := semiring.PlusTimes[float64]{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("err = %v does not wrap ErrConfig", err)
			}
			// The full kernel path must reject it identically, not panic.
			if _, kerr := MaskedSpGEMM[float64](sr, a, a, a, tc.cfg); !errors.Is(kerr, ErrConfig) {
				t.Fatalf("kernel err = %v does not wrap ErrConfig", kerr)
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestExplicitResetKindsValidate confirms the explicit-reset accumulator
// kinds remain accepted with any marker width (they do not use markers).
func TestExplicitResetKindsValidate(t *testing.T) {
	for _, k := range []accum.Kind{accum.DenseExplicitKind, accum.HashExplicitKind} {
		cfg := DefaultConfig()
		cfg.Accumulator = k
		cfg.MarkerBits = 0
		if err := cfg.Validate(); err != nil {
			t.Fatalf("kind %v rejected: %v", k, err)
		}
	}
}
