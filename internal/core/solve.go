package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// Masked sparse triangular solve on the dependency-wave scheduler.
//
// SolveTri computes x from op(L)·x = b restricted to a structural row
// mask: the solve runs on the principal submatrix op(L)[mask, mask],
// exactly the level-scheduled SpTRSV of arXiv 2503.05408 with the
// paper's Eq. 2 row-work estimate (row nnz, restricted to the mask)
// reused as the wave-coarsening cost model. Rows outside the mask pass
// through unchanged (x[i] = b[i]). Unlike SpGEMM, substitution is
// inherently ordered, so the plan is a level-set DAG schedule: rows
// whose in-mask dependencies all sit in strictly earlier levels form a
// wave, waves run under sched.RunWavesOpts on the persistent worker
// pool, and the coarsener splits wide levels into FLOP-balanced tiles
// and merges every run of single-tile levels into one serial wave.
// Whether the waves pay at all is the plan's verdict: a cost model in
// measured units sets their predicted time against one worker
// substituting in plain row order.
//
// Arithmetic is the native one of T (plus, times, subtract, divide) —
// substitution needs an inverse, which a general semiring does not
// supply. The semiring parameter types the pooled workspace only, so a
// solve and a multiply over the same semiring share the engine's pool.

// Tri selects which triangle of the operand a solve reads.
type Tri int

const (
	// Lower solves with the lower triangle: forward substitution.
	Lower Tri = iota
	// Upper solves with the upper triangle: backward substitution.
	Upper
)

// String renders the triangle for logs and error messages.
func (t Tri) String() string {
	switch t {
	case Lower:
		return "lower"
	case Upper:
		return "upper"
	default:
		return fmt.Sprintf("Tri(%d)", int(t))
	}
}

// SolveMode selects the execution strategy of a triangular solve.
type SolveMode int

const (
	// SolveAuto takes the plan's verdict: waves only when the planner
	// predicts they beat one worker in substitution order (see the solve
	// policy block above buildSolvePlan).
	SolveAuto SolveMode = iota
	// SolveWaves forces the wave-scheduled path (on one worker the solve
	// still runs serially).
	SolveWaves
	// SolveSerial forces the single-worker loop in substitution order.
	SolveSerial
)

// SolveOpts configures one triangular solve. The zero value solves the
// lower triangle, unmasked, with automatic mode and the coarsening the
// planner derives from the operand.
type SolveOpts struct {
	// Tri selects the stored triangle of the operand.
	Tri Tri
	// Transpose solves op(L) = Lᵀ: the transpose is materialized once at
	// plan time and cached with the plan, so iterative transpose solves
	// pay it once.
	Transpose bool
	// Mask lists the solved rows, sorted ascending without duplicates.
	// Nil (or empty) solves every row. The solve runs on the principal
	// submatrix L[Mask, Mask]; rows outside pass b through unchanged.
	// Read during the call only, never retained.
	Mask []sparse.Index
	// Mode selects waves, serial, or the plan's verdict.
	Mode SolveMode
	// WaveGrain overrides the Eq. 2 row-work target per tile when a wide
	// level is split; <= 0 means the grain the planner derives from the
	// average row work.
	WaveGrain int64
	// MergeBelow overrides the level width under which a level is never
	// split, so it merges with its single-tile neighbors into one serial
	// wave; <= 0 means the width derived from the worker count.
	MergeBelow int
}

// resolve normalizes an empty mask to the unmasked solve and, unless
// overridden, sets the merge width for a run on workers workers — O(1),
// before the plan lookup, because the width is part of the plan key.
func (so SolveOpts) resolve(workers int) SolveOpts {
	if so.MergeBelow <= 0 {
		so.MergeBelow = max(2*workers, solveMinMerge)
	}
	if len(so.Mask) == 0 {
		so.Mask = nil
	}
	return so
}

// validate rejects unknown enums and malformed masks for an n-row
// operand. Mask violations are structural (ErrInvalidMatrix), enum
// violations are configuration (ErrConfig), mirroring Validate.
func (so SolveOpts) validate(n int) error {
	switch so.Tri {
	case Lower, Upper:
	default:
		return errConfig("unknown triangle %d", so.Tri)
	}
	switch so.Mode {
	case SolveAuto, SolveWaves, SolveSerial:
	default:
		return errConfig("unknown solve mode %d", so.Mode)
	}
	prev := sparse.Index(-1)
	for k, r := range so.Mask {
		if r < 0 || int(r) >= n {
			return fmt.Errorf("%w: mask row %d out of range [0,%d)", ErrInvalidMatrix, r, n)
		}
		if r <= prev {
			return fmt.Errorf("%w: mask rows must be strictly ascending (entry %d: %d after %d)",
				ErrInvalidMatrix, k, r, prev)
		}
		prev = r
	}
	return nil
}

// effectiveLower reports whether the solve substitutes forward:
// transposing flips the stored triangle.
func (so SolveOpts) effectiveLower() bool {
	return (so.Tri == Lower) != so.Transpose
}

// solveKind encodes the solve flavor into PlanKey.Solve: non-zero to
// discriminate from SpGEMM plans, then one bit each for triangle and
// transpose.
func (so SolveOpts) solveKind() uint8 {
	k := uint8(1)
	if so.Tri == Upper {
		k |= 2
	}
	if so.Transpose {
		k |= 4
	}
	return k
}

// solveHash fingerprints what a solve plan depends on: the operand's
// row structure, the mask contents, the coarsening knobs and the worker
// count the serial-or-waves verdict is reached for. Column indices are
// deliberately excluded — hashing them would double the per-call memory
// traffic — so the cache relies on the documented contract that an
// operand is not mutated while cached plans for it may be reused;
// RowPtr plus the OperandID (header, shape, nnz) already catches
// reallocation and any structural edit that moves a row boundary.
//
// The words are folded FNV-1a style into four independent lanes, which
// fold into one at the end: one serial chain of multiplies would bound
// the hash by multiply latency, four lanes overlap them. Each step is a
// bijection of its lane for a fixed word and of the word for a fixed
// lane, so changing any single word always changes the hash.
//
//spgemm:hotpath
func solveHash[T sparse.Number](l *sparse.CSR[T], so SolveOpts, workers int) uint64 {
	h := [4]uint64{fnvOffset, fnvOffset, fnvOffset, fnvOffset}
	hashLanes(&h, l.RowPtr)
	hashLanes(&h, so.Mask)
	shape := [...]int64{int64(l.Rows), int64(len(so.Mask)), so.WaveGrain, int64(so.MergeBelow), int64(workers)}
	hashLanes(&h, shape[:])
	out := uint64(fnvOffset)
	for _, lane := range h {
		out = (out ^ lane) * fnvPrime
	}
	return out
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashLanes folds ws into the four lanes of h, word k into lane k mod 4.
//
//spgemm:hotpath
func hashLanes[W ~int32 | ~int64](h *[4]uint64, ws []W) {
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	for len(ws) >= 4 {
		h0 = (h0 ^ uint64(ws[0])) * fnvPrime
		h1 = (h1 ^ uint64(ws[1])) * fnvPrime
		h2 = (h2 ^ uint64(ws[2])) * fnvPrime
		h3 = (h3 ^ uint64(ws[3])) * fnvPrime
		ws = ws[4:]
	}
	h[0], h[1], h[2], h[3] = h0, h1, h2, h3
	for k, w := range ws {
		h[k] = (h[k] ^ uint64(w)) * fnvPrime
	}
}

// SolveTri solves op(L)·x = b into a fresh vector. See SolveTriInto.
func SolveTri[T sparse.Number, S semiring.Semiring[T]](
	sr S, l *sparse.CSR[T], b []T, cfg Config, so SolveOpts,
) ([]T, error) {
	dst := make([]T, len(b))
	if err := SolveTriInto(sr, dst, l, b, cfg, so); err != nil {
		return nil, err
	}
	return dst, nil
}

// SolveTriInto solves op(L)·x = b into dst under the wave scheduler.
// L must be square with sorted rows; dst and b must have length L.Rows
// and must either be the same slice (in-place solve) or not overlap.
// Rows outside the mask receive b unchanged. The level-set plan is
// cached in cfg.Engine keyed by operand fingerprint plus a structure
// hash (see solveHash); warm engine-backed solves are allocation-free
// on the substitution path.
//
// Failure taxonomy: ErrSingular for a structurally missing or
// numerically zero diagonal on a solved row, ErrNotTriangular for an
// in-mask entry on the wrong side of the diagonal, ErrCanceled /
// ErrPanic / ErrStalled exactly as MaskedSpGEMM.
func SolveTriInto[T sparse.Number, S semiring.Semiring[T]](
	sr S, dst []T, l *sparse.CSR[T], b []T, cfg Config, so SolveOpts,
) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	workers := sched.Workers(cfg.Workers)
	so = so.resolve(workers)
	n := l.Rows
	if l.Cols != n {
		return fmt.Errorf("%w: triangular operand must be square, got %dx%d", sparse.ErrShape, l.Rows, l.Cols)
	}
	if len(dst) != n || len(b) != n {
		return fmt.Errorf("%w: operand is %dx%d but len(dst)=%d, len(b)=%d",
			sparse.ErrShape, n, n, len(dst), len(b))
	}
	if err := so.validate(n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}

	ctx := cfg.Context
	scope := cfg.Recorder.StartRun()
	defer scope.End()
	poolPrior := cfg.Engine.Stats()

	plan, err := solvePlanFor(ctx, cfg, l, so, workers, scope)
	if err != nil {
		return err
	}
	sp := plan.Solve

	op := l
	if so.Transpose {
		op = sp.Trans.(*sparse.CSR[T])
	}
	// dst starts as b: out-of-mask rows keep it, solved rows overwrite it
	// in dependency order. An in-place solve (dst is b) skips the copy.
	if &dst[0] != &b[0] {
		copy(dst, b)
	}

	// Mask membership for the substitution kernel, staged in the pooled
	// dense scratch's state bytes: set before the run, cleared after, so
	// the workspace goes back to the pool clean. A failed run poisons the
	// checkout instead (same quarantine discipline as the SpGEMM path).
	var ws *exec.Workspace[T, S]
	var state []uint8
	clean := so.Mask == nil
	if so.Mask != nil {
		ws = exec.Dense[T, S](cfg.Engine, sr, n, 1, 0)
		defer func() {
			if !clean {
				ws.Poison()
			}
			ws.Release()
		}()
		state = ws.Dense[0].State[:n]
		for _, r := range so.Mask {
			state[r] = 1
		}
	}

	serial := so.Mode == SolveSerial || workers <= 1 ||
		(so.Mode == SolveAuto && sp.Serial)

	var wstats *sched.WaveStats
	if serial {
		rows, forward := so.Mask, so.effectiveLower()
		if !scope.Enabled() {
			// Direct call, no spans: keeps the warm engine-backed path
			// free of closure allocations (the zero-alloc pin).
			err = solveSerial(ctx, op, dst, b, state, rows, forward)
		} else {
			err = spanned(ctx, scope, obs.PhaseExecSolve, func() error {
				if err := solveSerial(ctx, op, dst, b, state, rows, forward); err != nil {
					return err
				}
				// One worker did the whole solve, as one tile.
				wc := &scope.WorkerSlots(1)[0]
				wc.Tiles.Add(1)
				wc.Rows.Add(int64(len(sp.Order)))
				wc.Flops.Add(sp.Flops)
				return nil
			})
		}
	} else {
		var wp sched.WavePlan
		wp, err = sched.NewWavePlan(sp.Waves)
		if err == nil {
			if scope.Enabled() {
				wstats = &sched.WaveStats{}
			}
			err = runSolveWavesSpanned(ctx, cfg, scope, workers, wp, wstats, func(worker, t int, wc *obs.WorkerCounters) {
				tile := sp.Tiles[t]
				var flops int64
				for s := tile.Lo; s < tile.Hi; s++ {
					i := int(sp.Order[s])
					flops += op.RowNNZ(i)
					solveRow(op, dst, b, state, i)
				}
				if wc != nil {
					wc.Rows.Add(int64(tile.Rows()))
					wc.Flops.Add(flops)
				}
			})
		}
	}
	if err != nil {
		return wrapSolveErr(err)
	}

	if so.Mask != nil {
		for _, r := range so.Mask {
			state[r] = 0
		}
	}
	recordSolveStats(scope, sp, wstats)
	recordPoolDelta(cfg, poolPrior, scope)
	scope.MarkComplete()
	clean = true
	return nil
}

// SolveTriSerial is the reference substitution: a single loop in
// substitution order with its own validation, sharing only the per-row
// arithmetic with the wave path so the two are bit-identical by
// construction (each row is summed in CSR storage order by exactly one
// worker in both). It allocates its own scratch and, for transpose
// solves, its own transpose — the baseline the wave path is verified
// and benchmarked against, not a fast path.
func SolveTriSerial[T sparse.Number](
	dst []T, l *sparse.CSR[T], b []T, so SolveOpts,
) (err error) {
	if len(so.Mask) == 0 {
		so.Mask = nil
	}
	n := l.Rows
	if l.Cols != n {
		return fmt.Errorf("%w: triangular operand must be square, got %dx%d", sparse.ErrShape, l.Rows, l.Cols)
	}
	if len(dst) != n || len(b) != n {
		return fmt.Errorf("%w: operand is %dx%d but len(dst)=%d, len(b)=%d",
			sparse.ErrShape, n, n, len(dst), len(b))
	}
	if err := so.validate(n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	op := l
	if so.Transpose {
		op = sparse.Transpose(l)
	}
	lower := so.effectiveLower()
	var state []uint8
	if so.Mask != nil {
		state = make([]uint8, n)
		for _, r := range so.Mask {
			state[r] = 1
		}
	}
	// Structural validation up front, so the substitution loop below can
	// share solveRow's unchecked arithmetic with the wave kernel.
	walk := func(i int) error {
		diag := false
		for _, j := range op.RowCols(i) {
			jj := int(j)
			if state != nil && state[jj] == 0 {
				continue
			}
			if jj == i {
				diag = true
				continue
			}
			if dep := jj < i; dep != lower {
				return fmt.Errorf("%w: entry (%d,%d) lies outside the %s triangle on the solved rows",
					ErrNotTriangular, i, jj, effTriName(lower))
			}
		}
		if !diag {
			return fmt.Errorf("%w: row %d has no stored diagonal", ErrSingular, i)
		}
		return nil
	}
	if so.Mask != nil {
		for _, r := range so.Mask {
			if err := walk(int(r)); err != nil {
				return err
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if err := walk(i); err != nil {
				return err
			}
		}
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	defer func() {
		err = recoverSingular(recover(), err)
	}()
	if so.Mask != nil {
		if lower {
			for _, r := range so.Mask {
				solveRow(op, dst, b, state, int(r))
			}
		} else {
			for k := len(so.Mask) - 1; k >= 0; k-- {
				solveRow(op, dst, b, state, int(so.Mask[k]))
			}
		}
		return nil
	}
	if lower {
		for i := 0; i < n; i++ {
			solveRow(op, dst, b, nil, i)
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			solveRow(op, dst, b, nil, i)
		}
	}
	return nil
}

// effTriName names the effective triangle for error messages (the
// stored one for plain solves, the flipped one under transpose, in the
// transposed operand's coordinates).
func effTriName(lower bool) string {
	if lower {
		return "lower"
	}
	return "upper"
}

// solveRow substitutes one row: acc = Σ op[i,j]·x[j] over the in-mask
// off-diagonal entries in CSR storage order, then
// x[i] = (b[i] − acc) / diag. The summation order is what makes serial
// and wave execution bit-identical — each row is computed by exactly
// one worker, in exactly this order, in both. A zero (or structurally
// missing, hence zero) diagonal panics with an ErrSingular-wrapped
// error; the containment frame turns that into the typed return (see
// wrapSolveErr). state is the mask-membership byte vector, nil when
// every row is solved.
//
//spgemm:hotpath
func solveRow[T sparse.Number](op *sparse.CSR[T], dst, b []T, state []uint8, i int) {
	cols, vals := op.Row(i)
	ii := sparse.Index(i)
	var acc, diag, zero T
	for k, j := range cols {
		if j == ii {
			diag = vals[k]
			continue
		}
		if state != nil && state[j] == 0 {
			continue
		}
		acc += vals[k] * dst[j]
	}
	if diag == zero {
		//lint:ignore hotpathalloc failure path: the solve is over
		panic(fmt.Errorf("%w: zero diagonal at row %d", ErrSingular, i))
	}
	dst[i] = (b[i] - acc) / diag
}

// solveSerial is the engine-backed serial execution: one worker
// substitutes rows (nil = all n) front to back when forward is set,
// back to front otherwise — with the mask's rows or none, and
// forward = effectively lower, that is substitution order — polling
// cancellation every stride rows. The loop is written out rather than
// run through forEachSolved's callback, so the warm path stays
// allocation-free and pays no indirect call per row; the ErrSingular
// panic from solveRow is recovered into the typed return.
func solveSerial[T sparse.Number](
	ctx context.Context, op *sparse.CSR[T], dst, b []T, state []uint8, rows []sparse.Index, forward bool,
) (err error) {
	defer func() {
		err = recoverSingular(recover(), err)
	}()
	const pollStride = 1024
	m := op.Rows
	if rows != nil {
		m = len(rows)
	}
	for k := 0; k < m; k++ {
		if ctx != nil && k%pollStride == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		i := k
		if !forward {
			i = m - 1 - k
		}
		if rows != nil {
			i = int(rows[i])
		}
		solveRow(op, dst, b, state, i)
	}
	return nil
}

// recoverSingular converts a recovered ErrSingular panic (solveRow's
// zero-diagonal signal) into the error it wraps; any other panic value
// is re-raised. Call with the result of recover().
func recoverSingular(r any, prev error) error {
	if r == nil {
		return prev
	}
	if e, ok := r.(error); ok && errors.Is(e, ErrSingular) {
		return e
	}
	panic(r)
}

// The solve policy — how levels are coarsened, and whether the waves pay
// at all — is decided here and nowhere else: once per operand structure
// and worker count, from the plan's own wave structure, and cached with
// the plan (exec.SolvePlan.Serial, .WaveGrain). The same shape
// tileCrossover has on the product side; constants, not knobs.
const (
	// A wide level is split at (average row work × solveGrainRows) row
	// work per tile, clamped to [solveMinGrain, solveMaxGrain]: tiles
	// sized to amortize a claim without starving the widest levels.
	solveGrainRows = 256
	solveMinGrain  = 512
	solveMaxGrain  = 1 << 16
	// solveMinMerge floors the merge width max(2·workers, ·): a level
	// that cannot feed every worker is never split, so it merges with its
	// single-tile neighbors instead of paying a barrier of its own.
	solveMinMerge = 8
)

// The verdict's unit costs, in nanoseconds, measured on a 2-vCPU host
// (go1.24, GOMAXPROCS 2), each the median of repeated -count runs,
// rounded. Regenerate them with the two benchmarks named below, the
// commands of `make bench-micro` without its -benchtime 1x.
const (
	// solveSubstNsPerNnz and solveLevelNsPerNnz are one row's
	// substitution per stored entry, walking rows in substitution order
	// (one worker) and in level-set order (a wave's tiles): level order
	// scatters the reads of earlier solution entries, so it costs more.
	// They are BenchmarkSolveOrder's substitution and level-order ns/nnz
	// (internal/core) on arabic-2005-sim, the corpus graph with the most
	// multi-tile waves, so the one whose verdict the gap decides.
	solveSubstNsPerNnz = 1.96
	solveLevelNsPerNnz = 3.08
	// solveCrossingNs is one wave barrier crossed by workers that arrive
	// apart, so all but the last have parked and must be woken —
	// internal/sched's BenchmarkWaveCrossing staggered row (ns/crossing).
	// A parked worker whose waker keeps working waits ~30 µs there,
	// against ~2.5 µs when the waker parks too and ~0.3 µs for the
	// ledger's back-to-back sched.barrier_ns. solveSpawnNs launches and
	// joins a wave run's workers: the same benchmark's spawn row.
	solveCrossingNs = 28600
	solveSpawnNs    = 1600
)

// solvePredict prices a plan's two ways to run on workers workers: one
// worker substitutes the total work in substitution order; the waves
// pay, per wave, the longer of its heaviest tile and its work spread
// evenly over the workers, ⌈work/p⌉, walked in level-set order, plus a
// crossing per barrier and one spawn. waveWork and heaviest hold one
// entry per wave.
func solvePredict(total int64, waveWork, heaviest []int64, workers int) (serialNs, wavesNs float64) {
	p := int64(max(workers, 1))
	var critical int64
	for w, work := range waveWork {
		critical += max(heaviest[w], (work+p-1)/p)
	}
	serialNs = solveSubstNsPerNnz * float64(total)
	wavesNs = solveLevelNsPerNnz*float64(critical) +
		solveCrossingNs*float64(len(waveWork)-1) + solveSpawnNs
	return serialNs, wavesNs
}

// forEachSolved calls fn on every solved row in substitution order —
// the mask's rows, or all n without one; ascending for an effective
// lower triangle, descending for upper — stopping at fn's first error.
func forEachSolved(mask []sparse.Index, n int, lower bool, fn func(i int) error) error {
	m := n
	if mask != nil {
		m = len(mask)
	}
	for k := 0; k < m; k++ {
		i := k
		if !lower {
			i = m - 1 - k
		}
		if mask != nil {
			i = int(mask[i])
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// SolvePlanOf returns the plan SolveTriInto runs op(L) on under cfg and
// so: the one cached in cfg.Engine, built and cached there on a miss,
// and built uncached without an engine. For tools that report a plan's
// shape and verdict next to measured times.
func SolvePlanOf[T sparse.Number](l *sparse.CSR[T], cfg Config, so SolveOpts) (*exec.SolvePlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if l.Cols != l.Rows {
		return nil, fmt.Errorf("%w: triangular operand must be square, got %dx%d", sparse.ErrShape, l.Rows, l.Cols)
	}
	workers := sched.Workers(cfg.Workers)
	so = so.resolve(workers)
	if err := so.validate(l.Rows); err != nil {
		return nil, err
	}
	plan, err := solvePlanFor(cfg.Context, cfg, l, so, workers, nil)
	return plan.Solve, err
}

// buildSolvePlan runs the level-set analysis, the wave coarsening and
// the serial-or-waves verdict for one solve flavor on workers workers:
// O(nnz) like every plan pass. Levels are computed in substitution
// order (ascending rows for an effective lower triangle, descending for
// upper) and a stable counting sort groups the slots by level. A level
// of at least MergeBelow rows splits greedily at ~grain row work per
// tile; every run of consecutive levels left with one tile merges into
// one wave of one tile, whose slots a second counting sort puts back
// into substitution order — which honors every dependency inside the
// tile, and is the order one worker substitutes fastest in. A plan whose
// widest wave is one tile is therefore a single serial wave. The
// verdict compares the two predictions of solvePredict.
func buildSolvePlan[T sparse.Number](l *sparse.CSR[T], so SolveOpts, workers int) (*exec.SolvePlan, error) {
	op := l
	var trans any
	if so.Transpose {
		t := sparse.Transpose(l)
		trans = t
		op = t
	}
	lower := so.effectiveLower()
	n := op.Rows

	var inMask []uint8
	m := n
	if so.Mask != nil {
		inMask = make([]uint8, n)
		for _, r := range so.Mask {
			inMask[r] = 1
		}
		m = len(so.Mask)
	}

	level := make([]int32, n)
	rowWork := make([]int64, n)
	maxLv := int32(-1)
	var totalFlops int64
	// Substitution order guarantees every dependency's level is final
	// before it is read.
	err := forEachSolved(so.Mask, n, lower, func(i int) error {
		lv := int32(0)
		var w int64
		diag := false
		for _, j := range op.RowCols(i) {
			jj := int(j)
			if inMask != nil && inMask[jj] == 0 {
				continue
			}
			w++
			if jj == i {
				diag = true
				continue
			}
			if dep := jj < i; dep != lower {
				return fmt.Errorf("%w: entry (%d,%d) lies outside the %s triangle on the solved rows",
					ErrNotTriangular, i, jj, effTriName(lower))
			}
			if next := level[jj] + 1; next > lv {
				lv = next
			}
		}
		if !diag {
			return fmt.Errorf("%w: row %d has no stored diagonal", ErrSingular, i)
		}
		level[i] = lv
		rowWork[i] = w
		totalFlops += w
		if lv > maxLv {
			maxLv = lv
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	numLv := int(maxLv) + 1
	if m == 0 || numLv == 0 {
		return &exec.SolvePlan{Serial: true, Trans: trans}, nil
	}

	grain := so.WaveGrain
	if grain <= 0 {
		avgRowWork := float64(totalFlops) / float64(m)
		grain = min(max(int64(avgRowWork*solveGrainRows), solveMinGrain), solveMaxGrain)
	}

	// Stable counting sort of the substitution order by level: slots
	// grouped by level, substitution order preserved within each level.
	lvStart := make([]int, numLv+1)
	lvFlops := make([]int64, numLv)
	_ = forEachSolved(so.Mask, n, lower, func(i int) error {
		lvStart[level[i]+1]++
		lvFlops[level[i]] += rowWork[i]
		return nil
	})
	for k := 0; k < numLv; k++ {
		lvStart[k+1] += lvStart[k]
	}
	order := make([]sparse.Index, m)
	fill := make([]int, numLv)
	copy(fill, lvStart[:numLv])
	_ = forEachSolved(so.Mask, n, lower, func(i int) error {
		order[fill[level[i]]] = sparse.Index(i)
		fill[level[i]]++
		return nil
	})

	// Coarsening: a wide level splits greedily at ~grain row work per
	// tile, so a skewed level cannot serialize its wave behind one heavy
	// tile, and becomes a wave of its own; every other level is one tile,
	// and a run of those is one serial wave — one barrier for the run,
	// not one per level, and no claim contention.
	var tiles []tiling.Tile
	var waves []sched.Wave
	var waveFlops, heaviest []int64
	waveOf := make([]int32, numLv)
	merged := false
	for k := 0; k < numLv; k++ {
		slotLo, slotHi := lvStart[k], lvStart[k+1]
		if slotHi-slotLo >= so.MergeBelow {
			tileLo, lo := len(tiles), slotLo
			var acc, top int64
			for s := slotLo; s < slotHi; s++ {
				acc += rowWork[order[s]]
				if acc >= grain && s+1 < slotHi {
					tiles = append(tiles, tiling.Tile{Lo: lo, Hi: s + 1})
					top = max(top, acc)
					lo, acc = s+1, 0
				}
			}
			if len(tiles) > tileLo {
				tiles = append(tiles, tiling.Tile{Lo: lo, Hi: slotHi})
				waves = append(waves, sched.Wave{Lo: tileLo, Hi: len(tiles)})
				waveFlops = append(waveFlops, lvFlops[k])
				heaviest = append(heaviest, max(top, acc))
				waveOf[k] = int32(len(waves) - 1)
				continue
			}
		}
		if w := len(waves) - 1; w >= 0 && waves[w].Tiles() == 1 {
			tiles[len(tiles)-1].Hi = slotHi
			waveFlops[w] += lvFlops[k]
			heaviest[w] = waveFlops[w]
			merged = true
		} else {
			tiles = append(tiles, tiling.Tile{Lo: slotLo, Hi: slotHi})
			waves = append(waves, sched.Wave{Lo: len(tiles) - 1, Hi: len(tiles)})
			waveFlops = append(waveFlops, lvFlops[k])
			heaviest = append(heaviest, lvFlops[k])
		}
		waveOf[k] = int32(len(waves) - 1)
	}
	if merged {
		// Stable counting sort of the substitution order by wave. A split
		// wave is one level, already in substitution order, so its tile
		// boundaries stay valid; a merged wave's slots interleave again.
		fill = fill[:len(waves)]
		for w, wv := range waves {
			fill[w] = tiles[wv.Lo].Lo
		}
		_ = forEachSolved(so.Mask, n, lower, func(i int) error {
			w := waveOf[level[i]]
			order[fill[w]] = sparse.Index(i)
			fill[w]++
			return nil
		})
	}

	serialWaves, widest := 0, 0
	for _, w := range waves {
		if w.Tiles() == 1 {
			serialWaves++
		}
		widest = max(widest, w.Tiles())
	}
	serialNs, wavesNs := solvePredict(totalFlops, waveFlops, heaviest, workers)
	return &exec.SolvePlan{
		Order:       order,
		Tiles:       tiles,
		Waves:       waves,
		Levels:      numLv,
		SerialWaves: serialWaves,
		Flops:       totalFlops,
		WaveFlops:   waveFlops,
		WaveGrain:   grain,
		Serial:      workers <= 1 || widest <= 1 || !(wavesNs < serialNs),
		SerialNs:    serialNs,
		WavesNs:     wavesNs,
		Trans:       trans,
	}, nil
}

// solvePlanFor resolves the level-schedule plan through the engine's
// cache. Unlike SpGEMM plans, a stale solve plan is a correctness bug
// (the wave order encodes dependencies), so the key content-hashes the
// structure and mask on top of the operand fingerprint; the hash is
// O(rows + mask) per call, paid on hits too. The verdict is priced for
// the run's workers capped at GOMAXPROCS — workers beyond the
// processors that can run them add no parallel speedup — and the key
// holds that same capped count.
func solvePlanFor[T sparse.Number](
	ctx context.Context, cfg Config, l *sparse.CSR[T], so SolveOpts, workers int, scope *obs.RunScope,
) (exec.Plan, error) {
	workers = min(workers, runtime.GOMAXPROCS(0))
	if cfg.Engine == nil {
		return buildSolvePlanSpanned(ctx, l, so, workers, scope)
	}
	key := exec.PlanKey{
		A:         exec.IDOf(l),
		Solve:     so.solveKind(),
		SolveHash: solveHash(l, so, workers),
	}
	// Lookup-before-Plan keeps the warm path allocation-free: the build
	// closure is only constructed on a miss.
	if p, ok := cfg.Engine.PlanLookup(key); ok {
		return p, nil
	}
	return cfg.Engine.Plan(key, func() (exec.Plan, error) {
		return buildSolvePlanSpanned(ctx, l, so, workers, scope)
	})
}

// buildSolvePlanSpanned is buildSolvePlan under the plan.levels span
// and pprof label, wrapped into an exec.Plan.
func buildSolvePlanSpanned[T sparse.Number](
	ctx context.Context, l *sparse.CSR[T], so SolveOpts, workers int, scope *obs.RunScope,
) (exec.Plan, error) {
	var sp *exec.SolvePlan
	var err error
	if !scope.Enabled() {
		sp, err = buildSolvePlan(l, so, workers)
	} else {
		end := scope.Span(obs.PhasePlanLevels)
		scope.Do(ctx, obs.PhasePlanLevels, func() {
			sp, err = buildSolvePlan(l, so, workers)
		})
		end()
	}
	if err != nil {
		return exec.Plan{}, err
	}
	return exec.Plan{Tiles: sp.Tiles, Solve: sp}, nil
}

// recordSolveStats folds the solve into the run scope's sched block:
// the plan's level count always, and — only when waves ran, which is
// exactly when wstats is non-nil — the executed wave shape, its
// histograms and the barrier traffic.
func recordSolveStats(scope *obs.RunScope, sp *exec.SolvePlan, wstats *sched.WaveStats) {
	if !scope.Enabled() {
		return
	}
	c := obs.SchedCounters{Levels: int64(sp.Levels)}
	if wstats != nil {
		c.WaveRuns = 1
		c.Waves = int64(len(sp.Waves))
		c.SerialWaves = int64(sp.SerialWaves)
		c.Barriers = wstats.Crossings.Load()
		c.BarrierWaitNs = wstats.BarrierWaitNs.Load()
		for w := range sp.Waves {
			c.WaveTiles[obs.WaveBucket(int64(sp.Waves[w].Tiles()))]++
			c.WaveFlops[obs.WaveBucket(sp.WaveFlops[w])]++
		}
	}
	scope.AddSched(c)
}
