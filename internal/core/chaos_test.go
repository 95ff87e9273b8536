package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// swapInjector routes Decide to a swappable Seeded injector, so one
// engine — whose Config.Chaos is fixed at construction — can serve an
// entire fault matrix with a fresh trigger set per cell.
type swapInjector struct {
	cur atomic.Pointer[chaos.Seeded]
}

func (s *swapInjector) Decide(p chaos.Point) chaos.Fault {
	if inj := s.cur.Load(); inj != nil {
		return inj.Decide(p)
	}
	return chaos.Fault{}
}

// runContained converts an escaping panic into an error, standing in
// for the facade's recover layer so the matrix can also drive faults at
// seams outside the scheduler's containment (workspace checkout and
// release, the plan-cache store).
func runContained(f func() (*sparse.CSR[float64], error)) (c *sparse.CSR[float64], err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("contained panic: %w", e)
				return
			}
			err = fmt.Errorf("contained panic: %v", r)
		}
	}()
	return f()
}

// typedChaosErr reports whether err belongs to the fault taxonomy a
// chaos run may legitimately surface.
func typedChaosErr(err error) bool {
	return errors.Is(err, ErrPanic) || errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrStalled) || errors.Is(err, chaos.ErrInjected)
}

// productForm is one formulation of the masked family run as
// M ⊙ (A × B), its result rendered as a CSR so runs compare bit for bit.
type productForm struct {
	name string
	run  func(m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error)
}

// productForms are the formulations of the masked family the fault
// matrix and the small ≡ tiled law drive: all run the one tile loop, so
// all must cross its seams.
var productForms = []productForm{
	{"masked", func(m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
		return MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg)
	}},
	{"select", func(m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
		return MaskedSpGEMMSelect[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg,
			func(v float64) (float64, bool) { return 2 * v, v > 0.25 })
	}},
	{"stream", func(m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
		// Rows are delivered disjointly, so per-row slots need no lock.
		type row struct {
			cols []sparse.Index
			vals []float64
		}
		rows := make([]row, m.Rows)
		err := MaskedSpGEMMStream[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg,
			func(i int, cols []sparse.Index, vals []float64) {
				rows[i] = row{append([]sparse.Index(nil), cols...), append([]float64(nil), vals...)}
			})
		if err != nil {
			return nil, err
		}
		c := sparse.NewCSR[float64](m.Rows, b.Cols, 0)
		for i, r := range rows {
			c.AppendRow(i, r.cols, r.vals)
		}
		return c, nil
	}},
	{"comp", func(m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
		return MaskedSpGEMMComp[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg)
	}},
}

// squareForm is a formulation on the square product M ⊙ (A × A).
type squareForm struct {
	name string
	run  func(m, a *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error)
}

// chaosForms are productForms on the fault matrix's square operands.
var chaosForms = func() []squareForm {
	out := make([]squareForm, len(productForms))
	for i, f := range productForms {
		out[i] = squareForm{f.name, func(m, a *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
			return f.run(m, a, a, cfg)
		}}
	}
	return out
}()

// chaosCell is one cell of the fault matrix: a fault kind armed to fire
// within the first maxNth crossings of an injection point.
type chaosCell struct {
	p      chaos.Point
	k      chaos.Kind
	maxNth int64
}

// chaosSeed seeds the fault matrix's operands and triggers.
const chaosSeed = int64(0xC04F5)

// runChaosCell drives one (formulation, policy, cell) of the fault
// matrix against the shared engine. The contract: the fault run either
// fails with a typed error or succeeds bit-identically to the
// engineless reference; the engine's pool invariants hold immediately
// afterwards (no dirty or leaked workspace survived quarantine); and a
// clean rerun on the same engine reproduces the reference exactly. With
// mustFire set the fault has to fire and quarantine exactly one
// workspace.
func runChaosCell(
	t *testing.T, eng *exec.Engine, swap *swapInjector,
	run func(m, a *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error),
	policy sched.Policy, cell chaosCell, mustFire bool,
) {
	// Fresh operands per cell so the fault run builds (and can
	// fault in) its own plan instead of hitting the shared cache.
	r := rand.New(rand.NewSource(chaosSeed ^ int64(cell.p)<<16 ^ int64(policy)<<8))
	a := randMatrix(140, 140, 0.06, r)
	m := randMatrix(140, 140, 0.10, r)
	cfg := DefaultConfig()
	cfg.Schedule = policy
	cfg.Tiles = 16
	cfg.Workers = 4

	ref, err := run(m, a, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	sd := chaos.NewSeeded(chaosSeed)
	sd.ArmSeeded(cell.p, cell.k, cell.maxNth, time.Millisecond)
	swap.cur.Store(sd)
	cfg.Engine = eng
	cfg.Resilience = &Resilience{Chaos: swap}
	quarantined := eng.Stats().Quarantines
	got, ferr := runContained(func() (*sparse.CSR[float64], error) {
		return run(m, a, cfg)
	})
	swap.cur.Store(nil)
	switch {
	case ferr != nil:
		if !typedChaosErr(ferr) {
			t.Fatalf("fault run failed with untyped error: %v", ferr)
		}
	case !sparse.Equal(ref, got):
		t.Fatal("fault run succeeded but result differs from reference")
	}
	if mustFire {
		if ferr == nil {
			t.Fatalf("%v fault never fired: the formulation does not cross the seam", cell.p)
		}
		if q := eng.Stats().Quarantines; q != quarantined+1 {
			t.Fatalf("quarantines = %d after a mid-run fault, want %d", q, quarantined+1)
		}
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatalf("pool invariants violated after fault: %v", err)
	}

	// Clean rerun on the same engine: the pool must serve a
	// pristine workspace and reproduce the reference exactly.
	cfg.Resilience = nil
	clean, err := run(m, a, cfg)
	if err != nil {
		t.Fatalf("clean rerun: %v", err)
	}
	if !sparse.Equal(ref, clean) {
		t.Fatal("clean rerun differs from reference")
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatalf("pool invariants violated after clean rerun: %v", err)
	}
}

// TestChaosMatrix drives a seeded fault through every injection point
// under every scheduling policy and every formulation of the masked
// family, all against one shared engine, under runChaosCell's contract.
// The row-kernel seam is crossed once per output row by every
// formulation, so its cell must fire and quarantine the workspace.
func TestChaosMatrix(t *testing.T) {
	swap := &swapInjector{}
	eng := exec.New(exec.Config{Chaos: swap})
	cells := []chaosCell{
		{chaos.WorkspaceCheckout, chaos.KindPanic, 1},
		{chaos.WorkspaceRelease, chaos.KindPanic, 1},
		{chaos.TileClaim, chaos.KindCancel, 8},
		{chaos.WorkerSpawn, chaos.KindPanic, 2},
		{chaos.AccumGrow, chaos.KindPanic, 1},
		{chaos.PlanStore, chaos.KindError, 1},
		{chaos.RowKernel, chaos.KindPressure, 16},
	}
	for _, form := range chaosForms {
		for _, policy := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
			for _, cell := range cells {
				t.Run(fmt.Sprintf("%s/%v/%v/%v", form.name, policy, cell.p, cell.k), func(t *testing.T) {
					runChaosCell(t, eng, swap, form.run, policy, cell, cell.p == chaos.RowKernel)
				})
			}
		}
	}
}

// TestChaosMatrixOneTile is the fault matrix's slice on the one-tile
// side of the crossover, where the same operands run as a single tile
// inline on the caller's goroutine: a row-kernel fault mid-tile and a
// cancel at the run's only tile claim must each fail typed and
// quarantine exactly one workspace, an accumulator-grow panic must be
// contained, and the clean rerun must reproduce the reference — the
// poison-unless-clean release and every seam sit where they sit for a
// tiled run.
func TestChaosMatrixOneTile(t *testing.T) {
	atProductionCrossover(t)
	swap := &swapInjector{}
	eng := exec.New(exec.Config{Chaos: swap})
	cells := []chaosCell{
		{chaos.RowKernel, chaos.KindPressure, 16},
		{chaos.AccumGrow, chaos.KindPanic, 1},
		{chaos.TileClaim, chaos.KindCancel, 1},
	}
	for _, form := range chaosForms {
		for _, cell := range cells {
			t.Run(fmt.Sprintf("%s/%v/%v", form.name, cell.p, cell.k), func(t *testing.T) {
				runChaosCell(t, eng, swap, form.run, sched.Dynamic, cell, cell.p != chaos.AccumGrow)
			})
		}
	}
	if st := eng.Stats(); st.PlanHits+st.PlanMisses != 0 {
		t.Errorf("one-tile runs touched the plan cache: %+v", st)
	}
}

// TestChaosStallWatchdog arms a long delay on the first tile claim of a
// single-worker run with a much shorter stall window: the watchdog must
// fail the run with ErrStalled carrying a *sched.StallError whose
// snapshot holds goroutine stacks.
func TestChaosStallWatchdog(t *testing.T) {
	r := rand.New(rand.NewSource(301))
	a := randMatrix(100, 100, 0.08, r)
	sr := semiring.PlusTimes[float64]{}
	sd := chaos.NewSeeded(302)
	sd.Arm(chaos.TileClaim, chaos.KindDelay, 1, 500*time.Millisecond)

	cfg := DefaultConfig()
	cfg.Tiles = 16
	cfg.Workers = 1
	cfg.Resilience = &Resilience{Chaos: sd, StallTimeout: 25 * time.Millisecond}
	_, err := MaskedSpGEMM[float64](sr, a, a, a, cfg)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	var se *sched.StallError
	if !errors.As(err, &se) {
		t.Fatalf("error chain lacks *sched.StallError: %v", err)
	}
	if len(se.Stacks) == 0 {
		t.Fatal("stall verdict carries no goroutine stacks")
	}
	if se.Done >= se.Tiles {
		t.Fatalf("stall verdict claims %d/%d tiles done", se.Done, se.Tiles)
	}
}

// TestChaosPreparedReuseAfterFault injects a panic into a prepared
// product's row kernel, then requires subsequent multiplies — same
// operands, same engine — to recover bit-identical results, with the
// poisoned workspace quarantined rather than reused.
func TestChaosPreparedReuseAfterFault(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	a := randMatrix(120, 120, 0.08, r)
	sr := semiring.PlusTimes[float64]{}
	swap := &swapInjector{}
	eng := exec.New(exec.Config{Chaos: swap})

	cfg := DefaultConfig()
	cfg.Tiles = 8
	cfg.Workers = 2
	cfg.Engine = eng
	cfg.Resilience = &Resilience{Chaos: swap}

	ref, err := MaskedSpGEMM[float64](sr, a, a, a, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	multiply, _, err := prepared(a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	quarantinesBefore := eng.Stats().Quarantines
	sd := chaos.NewSeeded(304)
	sd.Arm(chaos.RowKernel, chaos.KindPanic, 5, 0)
	swap.cur.Store(sd)
	if _, err := multiply(); !errors.Is(err, ErrPanic) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("faulted multiply: %v, want ErrPanic matching chaos.ErrInjected", err)
	}
	swap.cur.Store(nil)
	if q := eng.Stats().Quarantines; q != quarantinesBefore+1 {
		t.Fatalf("quarantines = %d, want %d", q, quarantinesBefore+1)
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatalf("pool invariants violated after quarantine: %v", err)
	}
	for i := 0; i < 3; i++ {
		got, err := multiply()
		if err != nil {
			t.Fatalf("reuse %d after fault: %v", i, err)
		}
		if !sparse.Equal(ref, got) {
			t.Fatalf("reuse %d after fault differs from reference", i)
		}
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatalf("pool invariants violated after reuse: %v", err)
	}
}
