package spgemm

import (
	"fmt"

	"maskedspgemm/internal/core"
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

// TRSV solves L·x = b by sparse triangular solve and returns x.
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
func TRSV(l *Matrix, b []float64, tri Triangle, opts Options) (_ []float64, err error) {
	defer recoverAsError(&err)
	if err := opts.validate(namedOperand{"l", l}); err != nil {
		return nil, err
	}
	so, err := opts.solveOpts(tri)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	if err := core.SolveTriInto(x, l.csr, b, opts.config(), so); err != nil {
		return nil, err
	}
	return x, nil
}

// solveOpts translates the facade surface to core.SolveOpts: the
// triangle and the mode. Coarsening and the serial-or-waves
// verdict are the planner's (internal/core), decided when the plan is
// built.
func (o Options) solveOpts(tri Triangle) (core.SolveOpts, error) {
	var so core.SolveOpts
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
