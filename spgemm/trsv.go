package spgemm

import (
	"fmt"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
)

// Triangle selects which triangle of the operand a triangular solve
// reads: TriLower is forward substitution, TriUpper backward.
type Triangle int

const (
	// TriLower solves with the lower triangle (forward substitution).
	TriLower Triangle = iota
	// TriUpper solves with the upper triangle (backward substitution).
	TriUpper
)

// LevelSchedule selects how a triangular solve is executed — see
// Options.LevelSchedule.
type LevelSchedule int

const (
	// LevelAuto runs the dependency waves only when the level-set plan
	// predicts they beat one worker substituting in row order: the
	// waves' critical path, barrier crossings and spawn against the
	// serial sweep, in measured unit costs, for the operand's structure
	// and the worker count. The verdict is reached when the plan is built
	// and cached with it — the execution-time tuning the paper's
	// conclusion calls for, applied to SpTRSV. One worker, or a plan
	// with no wave wider than one tile, is always serial.
	LevelAuto LevelSchedule = iota
	// LevelWaves forces the dependency-wave schedule: level sets
	// coarsened into FLOP-balanced tile waves, executed by the
	// persistent worker pool with barriers between waves.
	LevelWaves
	// LevelSerial forces the single-worker substitution loop, rows in
	// substitution order.
	LevelSerial
)

// TRSV solves op(L)·x = b by sparse triangular solve and returns x.
// l must be square with the selected triangle populated (a structurally
// missing or numerically zero diagonal returns ErrSingular; an entry on
// the wrong side of the diagonal returns ErrNotTriangular). The
// dependency-wave schedule is bit-identical to serial substitution —
// each row is summed in CSR order by exactly one worker — so results do
// not vary with Workers or LevelSchedule.
//
// The level-set plan is cached on opts.Engine keyed by the operand's
// structure, so iterative solves against a fixed matrix plan once; warm
// engine-backed solves allocate nothing on the substitution path.
func TRSV(l *Matrix, b []float64, tri Triangle, opts Options) ([]float64, error) {
	return TRSVMasked(l, b, tri, nil, opts)
}

// TRSVMasked is TRSV restricted to a structural row mask (sorted,
// duplicate-free row indices): the solve runs on the principal
// submatrix l[mask, mask] — the masked SpTRSV analogue of the package's
// masked products — and rows outside the mask pass b through unchanged.
// A nil (or empty) mask solves every row.
func TRSVMasked(l *Matrix, b []float64, tri Triangle, mask []int32, opts Options) (_ []float64, err error) {
	defer recoverAsError(&err)
	if err := opts.validate(namedOperand{"l", l}); err != nil {
		return nil, err
	}
	cfg := opts.config()
	so, err := opts.solveOpts(tri, mask)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	if err := core.SolveTriInto[float64, semiring.PlusTimes[float64]](
		semiring.PlusTimes[float64]{}, x, l.csr, b, cfg, so); err != nil {
		return nil, err
	}
	return x, nil
}

// solveOpts translates the facade surface to core.SolveOpts: the
// triangle, the mask and the mode. Coarsening and the serial-or-waves
// verdict are the planner's (internal/core), decided when the plan is
// built.
func (o Options) solveOpts(tri Triangle, mask []int32) (core.SolveOpts, error) {
	so := core.SolveOpts{Mask: mask}
	switch tri {
	case TriLower:
		so.Tri = core.Lower
	case TriUpper:
		so.Tri = core.Upper
	default:
		return so, fmt.Errorf("%w: unknown triangle %d", ErrConfig, tri)
	}
	switch o.LevelSchedule {
	case LevelWaves:
		so.Mode = core.SolveWaves
	case LevelSerial:
		so.Mode = core.SolveSerial
	case LevelAuto:
		so.Mode = core.SolveAuto
	default:
		return so, fmt.Errorf("%w: unknown level schedule %d", ErrConfig, o.LevelSchedule)
	}
	return so, nil
}
