package bench

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// chaosSwap routes Decide to a swappable seeded injector so one engine
// — whose Config.Chaos is fixed at construction — serves the whole
// drill with a fresh trigger set per cell.
type chaosSwap struct {
	cur atomic.Pointer[chaos.Seeded]
}

func (s *chaosSwap) Decide(p chaos.Point) chaos.Fault {
	if inj := s.cur.Load(); inj != nil {
		return inj.Decide(p)
	}
	return chaos.Fault{}
}

// quietInjector is armed machinery that never fires: the price of an
// enabled-but-silent injector, measured against the nil fast path.
type quietInjector struct{}

func (quietInjector) Decide(chaos.Point) chaos.Fault { return chaos.Fault{} }

// chaosSteadyAllocBudget bounds the warm, engine-backed, serial core
// multiply's allocations per operation: the freshly assembled result
// (the measurement loop frees the output each rep, so it is rebuilt by
// design) plus a handful of fixed closure cells — the same fixed cost
// the facade pins in its steady-state alloc test. The budget predates
// the chaos layer, so staying inside it proves the nil-injector fast
// path adds zero allocations to the hot tile loop.
const chaosSteadyAllocBudget = 16

// ChaosDrill drives a seeded fault through every injection point under
// every scheduling policy against one shared engine, then pins the
// disabled-injector cost of the hot tile loop. The per-cell contract is
// the chaos suite's: the fault run either fails with a typed error or
// succeeds bit-identically to the engineless reference; the engine's
// pool invariants hold immediately afterwards; and a clean rerun on the
// same engine reproduces the reference exactly. Any violation is an
// error — `spgemm-bench -experiment chaos -chaos-seed N` is the
// deployable form of the `make chaos` gate, reusable against arbitrary
// seeds.
func ChaosDrill(w io.Writer, o Options, seed int64) error {
	swap := &chaosSwap{}
	eng := exec.New(exec.Config{Chaos: swap})
	sr := semiring.PlusTimes[float64]{}

	cells := []struct {
		p      chaos.Point
		k      chaos.Kind
		maxNth int64
	}{
		{chaos.WorkspaceCheckout, chaos.KindPanic, 1},
		{chaos.WorkspaceRelease, chaos.KindPanic, 1},
		{chaos.TileClaim, chaos.KindCancel, 8},
		{chaos.WorkerSpawn, chaos.KindPanic, 2},
		{chaos.AccumGrow, chaos.KindPanic, 1},
		{chaos.PlanStore, chaos.KindError, 1},
		{chaos.RowKernel, chaos.KindPressure, 16},
	}

	fmt.Fprintf(w, "Chaos drill: seeded fault matrix, seed %d, shared engine\n", seed)
	fmt.Fprintf(w, "%-8s %-18s %-10s %10s %6s  %s\n",
		"sched", "point", "kind", "crossings", "fired", "outcome")
	absorbed, surfaced := 0, 0
	for _, policy := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
		for _, cell := range cells {
			// Fresh operands per cell so the fault run builds (and can
			// fault in) its own plan instead of hitting the shared cache.
			// Sized (untiled work ≈ 4 × 10⁵) to sit above the tile crossover,
			// so every cell runs the tiled path and crosses its plan-store,
			// worker-spawn and tile-claim seams; the one-tile side of the
			// matrix is core's TestChaosMatrixOneTile.
			cellSeed := uint64(seed) ^ uint64(cell.p)<<16 ^ uint64(policy)<<8
			a := graphgen.ErdosRenyi(1400, 1400*8, cellSeed)
			m := graphgen.ErdosRenyi(1400, 1400*14, cellSeed+1)
			cfg := core.DefaultConfig()
			cfg.Schedule = policy
			cfg.Tiles = 16
			cfg.Workers = workersOr(o.Workers, 4)

			ref, err := core.MaskedSpGEMM[float64](sr, m, a, a, cfg)
			if err != nil {
				return fmt.Errorf("bench: chaos reference run: %w", err)
			}

			sd := chaos.NewSeeded(seed)
			sd.ArmSeeded(cell.p, cell.k, cell.maxNth, time.Millisecond)
			swap.cur.Store(sd)
			cfg.Engine = eng
			cfg.Resilience = &core.Resilience{Chaos: swap}
			got, ferr := chaosContained(func() (*sparse.CSR[float64], error) {
				return core.MaskedSpGEMM[float64](sr, m, a, a, cfg)
			})
			swap.cur.Store(nil)

			outcome := "absorbed (bit-identical)"
			switch {
			case ferr != nil && !typedChaosError(ferr):
				return fmt.Errorf("bench: chaos cell %v/%v/%v failed with untyped error: %w",
					policy, cell.p, cell.k, ferr)
			case ferr != nil:
				outcome = "typed: " + chaosErrName(ferr)
				surfaced++
			case !sparse.Equal(ref, got):
				return fmt.Errorf("bench: chaos cell %v/%v/%v succeeded but result differs from reference",
					policy, cell.p, cell.k)
			default:
				absorbed++
			}
			if err := eng.SelfCheck(); err != nil {
				return fmt.Errorf("bench: pool invariants violated after %v/%v/%v: %w",
					policy, cell.p, cell.k, err)
			}

			// Clean rerun on the same engine: the pool must serve a
			// pristine workspace and reproduce the reference exactly.
			cfg.Resilience = nil
			clean, err := core.MaskedSpGEMM[float64](sr, m, a, a, cfg)
			if err != nil {
				return fmt.Errorf("bench: clean rerun after %v/%v/%v: %w", policy, cell.p, cell.k, err)
			}
			if !sparse.Equal(ref, clean) {
				return fmt.Errorf("bench: clean rerun after %v/%v/%v differs from reference",
					policy, cell.p, cell.k)
			}
			if err := eng.SelfCheck(); err != nil {
				return fmt.Errorf("bench: pool invariants violated after clean rerun %v/%v/%v: %w",
					policy, cell.p, cell.k, err)
			}
			fmt.Fprintf(w, "%-8v %-18v %-10v %10d %6d  %s\n",
				policy, cell.p, cell.k, sd.Crossings(cell.p), sd.Fired(cell.p), outcome)
		}
	}
	// Wave-barrier cells: the dependency-wave executor's barrier seam,
	// driven through the masked triangular solve — the kernel whose
	// schedule actually crosses barriers. Same contract as above: typed
	// error or bit-identical solution, pool invariants after every cell.
	for _, policy := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
		for _, kind := range []chaos.Kind{chaos.KindPanic, chaos.KindCancel, chaos.KindDelay} {
			cellSeed := uint64(seed) ^ uint64(chaos.WaveBarrier)<<16 ^ uint64(policy)<<8 ^ uint64(kind)
			l := lowerFromGraph(graphgen.ErdosRenyi(160, 160*8, cellSeed))
			b := make([]float64, l.Rows)
			for i := range b {
				b[i] = 1
			}
			ref := make([]float64, l.Rows)
			if err := core.SolveTriSerial(ref, l, b, core.SolveOpts{Tri: core.Lower}); err != nil {
				return fmt.Errorf("bench: chaos solve reference: %w", err)
			}

			cfg := core.DefaultConfig()
			cfg.Schedule = policy
			cfg.Workers = workersOr(o.Workers, 4)
			cfg.Engine = eng
			so := core.SolveOpts{Tri: core.Lower, Mode: core.SolveWaves, WaveGrain: 64, MergeBelow: 2}

			sd := chaos.NewSeeded(seed)
			sd.ArmSeeded(chaos.WaveBarrier, kind, 4, time.Millisecond)
			swap.cur.Store(sd)
			cfg.Resilience = &core.Resilience{Chaos: swap}
			got := make([]float64, l.Rows)
			ferr := core.SolveTriInto[float64, semiring.PlusTimes[float64]](sr, got, l, b, cfg, so)
			swap.cur.Store(nil)

			outcome := "absorbed (bit-identical)"
			switch {
			case ferr != nil && !typedChaosError(ferr):
				return fmt.Errorf("bench: chaos cell %v/%v/%v failed with untyped error: %w",
					policy, chaos.WaveBarrier, kind, ferr)
			case ferr != nil:
				outcome = "typed: " + chaosErrName(ferr)
				surfaced++
			case !solutionsEqual(ref, got):
				return fmt.Errorf("bench: chaos cell %v/%v/%v succeeded but solution differs from serial",
					policy, chaos.WaveBarrier, kind)
			default:
				absorbed++
			}
			if err := eng.SelfCheck(); err != nil {
				return fmt.Errorf("bench: pool invariants violated after %v/%v/%v: %w",
					policy, chaos.WaveBarrier, kind, err)
			}

			// Clean rerun on the same engine must reproduce serial exactly.
			cfg.Resilience = nil
			clean := make([]float64, l.Rows)
			if err := core.SolveTriInto[float64, semiring.PlusTimes[float64]](sr, clean, l, b, cfg, so); err != nil {
				return fmt.Errorf("bench: clean solve rerun after %v/%v/%v: %w",
					policy, chaos.WaveBarrier, kind, err)
			}
			if !solutionsEqual(ref, clean) {
				return fmt.Errorf("bench: clean solve rerun after %v/%v/%v differs from serial",
					policy, chaos.WaveBarrier, kind)
			}
			fmt.Fprintf(w, "%-8v %-18v %-10v %10d %6d  %s\n",
				policy, chaos.WaveBarrier, kind, sd.Crossings(chaos.WaveBarrier),
				sd.Fired(chaos.WaveBarrier), outcome)
		}
	}

	st := eng.Stats()
	fmt.Fprintf(w, "%d cells: %d faults surfaced typed, %d absorbed; %d workspaces quarantined; pool invariants held throughout\n",
		absorbed+surfaced, surfaced, absorbed, st.Quarantines)

	return chaosOverheadPin(w, o)
}

// solutionsEqual compares two solve vectors bit-for-bit.
func solutionsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chaosOverheadPin measures the warm, engine-backed, serial multiply with
// the injector disabled (the nil fast path) against the same loop with
// an armed-but-quiet injector, and fails if the fast path allocates
// more than the quiet path or exceeds the steady-state budget the
// facade pinned before the chaos layer existed.
func chaosOverheadPin(w io.Writer, o Options) error {
	sr := semiring.PlusTimes[float64]{}
	a := graphgen.ErdosRenyi(128, 128*10, 0xC4A05)
	cfg := core.DefaultConfig()
	cfg.Tiles = 4
	cfg.Workers = 1 // serial: no per-run goroutine spawns to count

	// One warm-up run caches the plan and pools the workspace; 50 fixed
	// repetitions keep the allocs/op comparison independent of -budget.
	o.Method = Methodology{Warmups: 1, MaxReps: 50, Budget: time.Hour, Context: o.Method.Context}
	pin := func(config string, res *core.Resilience) (Measurement, error) {
		c := cfg
		c.Resilience = res
		c.Engine = exec.New(exec.Config{})
		return o.time("chaos", "er-128", config, func() (int64, error) {
			return nnz(core.MaskedSpGEMM[float64](sr, a, a, a, c))
		})
	}
	off, err := pin("nil-injector", nil)
	if err != nil {
		return err
	}
	quiet, err := pin("quiet-injector", &core.Resilience{Chaos: quietInjector{}})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "nil-injector fast path: %.0f allocs/op %.3f ms/op; quiet injector: %.0f allocs/op %.3f ms/op\n",
		off.AllocsPerOp, off.MeanMillis, quiet.AllocsPerOp, quiet.MeanMillis)
	if off.AllocsPerOp > quiet.AllocsPerOp {
		return fmt.Errorf("bench: nil-injector path allocates more than the armed quiet path (%.0f > %.0f allocs/op)",
			off.AllocsPerOp, quiet.AllocsPerOp)
	}
	if off.AllocsPerOp > chaosSteadyAllocBudget {
		return fmt.Errorf("bench: nil-injector warm multiply allocates %.0f/op, over the pre-chaos steady budget %d",
			off.AllocsPerOp, chaosSteadyAllocBudget)
	}
	fmt.Fprintf(w, "nil-injector fast path within the %d-alloc steady budget; no allocation added by the chaos layer\n",
		chaosSteadyAllocBudget)
	return nil
}

// chaosContained converts an escaping panic into an error, standing in
// for the facade's recover layer so the drill can drive faults at seams
// outside the scheduler's containment.
func chaosContained(f func() (*sparse.CSR[float64], error)) (c *sparse.CSR[float64], err error) {
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

// typedChaosError reports whether err belongs to the fault taxonomy a
// chaos run may legitimately surface.
func typedChaosError(err error) bool {
	return errors.Is(err, core.ErrPanic) || errors.Is(err, core.ErrCanceled) ||
		errors.Is(err, core.ErrStalled) || errors.Is(err, chaos.ErrInjected)
}

// chaosErrName labels err with the first matching sentinel for the
// drill's report rows.
func chaosErrName(err error) string {
	switch {
	case errors.Is(err, core.ErrStalled):
		return "ErrStalled"
	case errors.Is(err, core.ErrPanic):
		return "ErrPanic"
	case errors.Is(err, core.ErrCanceled):
		return "ErrCanceled"
	default:
		return "ErrInjected"
	}
}

// workersOr returns n unless it is zero, then def.
func workersOr(n, def int) int {
	if n != 0 {
		return n
	}
	return def
}
