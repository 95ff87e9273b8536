package tiling

import (
	"context"
	"fmt"

	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
)

// parallelCutoff is the input length below which the parallel plan
// phases fall back to their serial loops: spawning goroutines for a few
// thousand rows costs more than the pass itself. A variable so tests
// can lower it and exercise the parallel paths on small inputs.
var parallelCutoff = 1 << 14

// SetParallelCutoffForTest overrides the serial crossover threshold and
// returns the previous value, so tests in dependent packages can drive
// the parallel paths with small inputs. Not for production use.
func SetParallelCutoffForTest(n int) (old int) {
	old = parallelCutoff
	parallelCutoff = n
	return old
}

// The passes below are the plan-construction loops, each written once in
// its fault-contained, cancellable form: block-parallel loops run via
// sched.BlocksE, so a panic inside a worker (a malformed operand, say)
// comes back as a *sched.PanicError and a cancelled context aborts the
// plan between blocks. Serial fallbacks below the crossover threshold
// run on the caller's goroutine, where the caller's own recover applies.
// ctx may be nil everywhere.

// must unwraps the result of an E pass run without a context, where the
// only possible failures are a contained worker panic or an unknown
// strategy — programming errors, re-raised.
func must[V any](v V, err error) V {
	if err != nil {
		panic(err)
	}
	return v
}

// RowWorkParallel is RowWorkParallelE into a fresh slice, without a
// context, for callers that cannot be cancelled.
func RowWorkParallel[T sparse.Number](a, b, m *sparse.CSR[T], p int) []int64 {
	w := make([]int64, a.Rows)
	return must(w, RowWorkParallelE(nil, w, a, b, m, p))
}

// PrefixSum returns the prefix sum of work on p workers:
// out[i] = Σ work[:i], with out[len(work)] the total.
func PrefixSum(work []int64, p int) []int64 {
	prefix := make([]int64, len(work)+1)
	copy(prefix[1:], work)
	return must(prefix, InclusiveScanE(nil, prefix[1:], p))
}

// RowWorkParallelE fills w[:a.Rows] with RowWork computed over
// contiguous row blocks on p workers. Rows are independent, so the
// result is bit-identical to the serial estimator; inputs below the
// crossover threshold (or p <= 1) take the serial path unchanged.
func RowWorkParallelE[T sparse.Number](ctx context.Context, w []int64, a, b, m *sparse.CSR[T], p int) error {
	if p == 1 || a.Rows < parallelCutoff {
		rowWorkInto(w, a, b, m, 0, a.Rows)
		return nil
	}
	return sched.BlocksE(ctx, p, a.Rows, func(_, lo, hi int) {
		rowWorkInto(w, a, b, m, lo, hi)
	})
}

// FlopCountParallelE is FlopCount computed over contiguous row blocks on
// p workers: per-block totals and maxima reduce to the same values the
// serial pass produces (int64 addition and max are associative).
func FlopCountParallelE[T sparse.Number](ctx context.Context, a, b *sparse.CSR[T], p int) (total int64, maxRow int64, err error) {
	if p == 1 || a.Rows < parallelCutoff {
		total, maxRow = FlopCount(a, b)
		return total, maxRow, nil
	}
	p = sched.Workers(p)
	totals := make([]int64, p)
	maxes := make([]int64, p)
	if err := sched.BlocksE(ctx, p, a.Rows, func(w, lo, hi int) {
		totals[w], maxes[w] = flopCountRange(a, b, lo, hi)
	}); err != nil {
		return 0, 0, err
	}
	for w := 0; w < p; w++ {
		total += totals[w]
		if maxes[w] > maxRow {
			maxRow = maxes[w]
		}
	}
	return total, maxRow, nil
}

// InclusiveScanE replaces x with its inclusive prefix sum in place.
// Large inputs scan in two block-parallel passes (per-block local scans,
// then a block-offset fixup after a serial scan of the p block totals),
// cancellable between them; small inputs, or p <= 1, scan serially. Both
// orders sum the same int64 terms left to right within each block, so
// the result is bit-identical.
func InclusiveScanE(ctx context.Context, x []int64, p int) error {
	n := len(x)
	if p == 1 || n < parallelCutoff {
		var run int64
		for i := range x {
			run += x[i]
			x[i] = run
		}
		return nil
	}
	p = sched.Workers(p)
	if p > n {
		p = n
	}
	sums := make([]int64, p)
	if err := sched.BlocksE(ctx, p, n, func(w, lo, hi int) {
		var run int64
		for i := lo; i < hi; i++ {
			run += x[i]
			x[i] = run
		}
		sums[w] = run
	}); err != nil {
		return err
	}
	var off int64
	for w := 0; w < p; w++ {
		s := sums[w]
		sums[w] = off
		off += s
	}
	return sched.BlocksE(ctx, p, n, func(w, lo, hi int) {
		d := sums[w]
		if d == 0 {
			return
		}
		for i := lo; i < hi; i++ {
			x[i] += d
		}
	})
}

// WorkPrefixE returns the prefix sum of the Eq. 2 row work of
// C = M ⊙ (A × B) on p workers: prefix[i] = Σ RowWork[:i], with
// prefix[a.Rows] the total. It is the FLOP-balanced plan's one scratch
// array: the row work lands in prefix[1:] and is scanned there in
// place. stage, when not nil, runs each pass (step 0 the row work,
// step 1 the scan), so a caller can time and label them apart; a nil
// stage runs them directly and allocates nothing but the array.
func WorkPrefixE[T sparse.Number](ctx context.Context, a, b, m *sparse.CSR[T], p int, stage func(step int, run func() error) error) ([]int64, error) {
	prefix := make([]int64, a.Rows+1)
	for step := range 2 {
		var err error
		if stage == nil {
			err = workPrefixStep(ctx, step, prefix[1:], a, b, m, p)
		} else {
			err = stage(step, func() error { return workPrefixStep(ctx, step, prefix[1:], a, b, m, p) })
		}
		if err != nil {
			return nil, err
		}
	}
	return prefix, nil
}

// workPrefixStep runs pass step of WorkPrefixE over w = prefix[1:].
func workPrefixStep[T sparse.Number](ctx context.Context, step int, w []int64, a, b, m *sparse.CSR[T], p int) error {
	if step == 0 {
		return RowWorkParallelE(ctx, w, a, b, m, p)
	}
	return InclusiveScanE(ctx, w, p)
}

// MakeParallelE builds tiles for the given operands with the requested
// strategy and tile count, running the work estimation and prefix sum on
// p workers. An unknown strategy is an error.
func MakeParallelE[T sparse.Number](ctx context.Context, s Strategy, n, p int, a, b, m *sparse.CSR[T]) ([]Tile, error) {
	switch s {
	case Uniform:
		return UniformTiles(a.Rows, n), nil
	case FlopBalanced:
		prefix, err := WorkPrefixE(ctx, a, b, m, p, nil)
		if err != nil {
			return nil, err
		}
		return BalancedFromPrefix(prefix, n), nil
	default:
		return nil, fmt.Errorf("tiling: unknown strategy %d", s)
	}
}
