package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// Sparse triangular solve on the dependency-wave scheduler.
//
// SolveTriInto computes x from L·x = b: the level-scheduled SpTRSV of
// arXiv 2503.05408 with the paper's Eq. 2 row-work estimate (row nnz)
// reused as the wave-coarsening cost model. Unlike SpGEMM, substitution
// is inherently ordered, so the plan is a level-set DAG schedule: rows
// whose dependencies all sit in strictly earlier levels form a wave,
// waves run under sched.RunWavesOpts on the persistent worker pool, and
// the coarsener splits wide levels into FLOP-balanced tiles and merges
// every run of single-tile levels into one serial wave. Whether the
// waves pay at all is the plan's verdict: a cost model in measured units
// sets their predicted time against one worker substituting in plain
// row order.
//
// Arithmetic is the native one of T (plus, times, subtract, divide) —
// substitution needs an inverse, which a general semiring does not
// supply — and a solve checks out no workspace.

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
// lower triangle with automatic mode and the coarsening the planner
// derives from the operand.
type SolveOpts struct {
	// Tri selects the stored triangle of the operand.
	Tri Tri
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

// resolve sets, unless overridden, the merge width for a run on workers
// workers — O(1), before the plan lookup, because the width is part of
// the plan key.
func (so SolveOpts) resolve(workers int) SolveOpts {
	if so.MergeBelow <= 0 {
		so.MergeBelow = max(2*workers, solveMinMerge)
	}
	return so
}

// validate rejects unknown enums with ErrConfig, mirroring Validate.
func (so SolveOpts) validate() error {
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
	return nil
}

// solveKind encodes the solve flavor into PlanKey.Solve: non-zero to
// discriminate from SpGEMM plans, then one bit for the triangle.
func (so SolveOpts) solveKind() uint8 {
	if so.Tri == Upper {
		return 3
	}
	return 1
}

// solveHash fingerprints what a solve plan depends on: the operand's
// row structure, the coarsening knobs and the worker count the
// serial-or-waves verdict is reached for. Column indices are
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
	shape := [...]int64{int64(l.Rows), so.WaveGrain, int64(so.MergeBelow), int64(workers)}
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
func hashLanes(h *[4]uint64, ws []int64) {
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

// SolveTriInto solves L·x = b into dst under the wave scheduler.
// L must be square with sorted rows; dst and b must have length L.Rows
// and must either be the same slice (in-place solve) or not overlap.
// The level-set plan is cached in cfg.Engine keyed by operand
// fingerprint plus a structure hash (see solveHash); warm engine-backed
// solves are allocation-free on the substitution path.
//
// Failure taxonomy: ErrSingular for a structurally missing or
// numerically zero diagonal, ErrNotTriangular for an entry on the wrong
// side of the diagonal, ErrCanceled / ErrPanic / ErrStalled exactly as
// MaskedSpGEMM.
func SolveTriInto[T sparse.Number](dst []T, l *sparse.CSR[T], b []T, cfg Config, so SolveOpts) error {
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
	if err := so.validate(); err != nil {
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

	serial := so.Mode == SolveSerial || workers <= 1 ||
		(so.Mode == SolveAuto && sp.Serial)

	var wstats *sched.WaveStats
	lower := so.Tri == Lower
	if serial {
		if !scope.Enabled() {
			// Direct call, no spans: keeps the warm engine-backed path
			// free of closure allocations (the zero-alloc pin).
			err = solveSerial(ctx, l, dst, b, lower)
		} else {
			err = spanned(ctx, scope, obs.PhaseExecSolve, func() error {
				if err := solveSerial(ctx, l, dst, b, lower); err != nil {
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
				substRows(l, dst, b, sp.Order, tile.Lo, tile.Hi, lower)
				if wc != nil {
					var flops int64
					for _, i := range sp.Order[tile.Lo:tile.Hi] {
						flops += l.RowNNZ(int(i))
					}
					wc.Rows.Add(int64(tile.Rows()))
					wc.Flops.Add(flops)
				}
			})
		}
	}
	if err != nil {
		return wrapSolveErr(err)
	}

	recordSolveStats(scope, sp, wstats)
	recordPoolDelta(cfg, poolPrior, scope)
	scope.MarkComplete()
	return nil
}

// SolveTriSerial is the reference substitution: a single loop in
// substitution order with its own validation, running solveRow, which
// finds each row's diagonal by testing every entry. SolveTriInto runs
// substRows, which trusts the plan's validation; both sum each row in
// CSR storage order on exactly one worker, and that the two agree bit
// for bit is held by test, not by construction:
// TestSolveTriLatticeBitIdentical and TestSolveTriMatchesSerialBitIdentical
// in this package, and the trsv experiment's gate (`make bench-trsv`)
// on corpus graphs. It is the baseline the solve is verified and
// benchmarked against, not a fast path.
func SolveTriSerial[T sparse.Number](
	dst []T, l *sparse.CSR[T], b []T, so SolveOpts,
) (err error) {
	n := l.Rows
	if l.Cols != n {
		return fmt.Errorf("%w: triangular operand must be square, got %dx%d", sparse.ErrShape, l.Rows, l.Cols)
	}
	if len(dst) != n || len(b) != n {
		return fmt.Errorf("%w: operand is %dx%d but len(dst)=%d, len(b)=%d",
			sparse.ErrShape, n, n, len(dst), len(b))
	}
	if err := so.validate(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	lower := so.Tri == Lower
	// Structural validation up front, so the substitution loop below can
	// run solveRow's unchecked arithmetic.
	for i := 0; i < n; i++ {
		diag := false
		for _, j := range l.RowCols(i) {
			jj := int(j)
			if jj == i {
				diag = true
				continue
			}
			if dep := jj < i; dep != lower {
				return fmt.Errorf("%w: entry (%d,%d) lies outside the %s triangle",
					ErrNotTriangular, i, jj, so.Tri)
			}
		}
		if !diag {
			return fmt.Errorf("%w: row %d has no stored diagonal", ErrSingular, i)
		}
	}
	defer func() {
		err = recoverSingular(recover(), err)
	}()
	if lower {
		for i := 0; i < n; i++ {
			solveRow(l, dst, b, i)
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			solveRow(l, dst, b, i)
		}
	}
	return nil
}

// solveRow substitutes one row: acc = Σ l[i,j]·x[j] over the
// off-diagonal entries in CSR storage order, then
// x[i] = (b[i] − acc) / diag. The summation order is what makes the
// reference and substRows bit-identical — each row is computed by
// exactly one worker, in exactly this order, in both. A zero (or
// structurally missing, hence zero) diagonal panics with an
// ErrSingular-wrapped error, which recoverSingular turns into the typed
// return.
func solveRow[T sparse.Number](l *sparse.CSR[T], dst, b []T, i int) {
	cols, vals := l.Row(i)
	ii := sparse.Index(i)
	var acc, diag, zero T
	for k, j := range cols {
		if j == ii {
			diag = vals[k]
			continue
		}
		acc += vals[k] * dst[j]
	}
	if diag == zero {
		panic(fmt.Errorf("%w: zero diagonal at row %d", ErrSingular, i))
	}
	dst[i] = (b[i] - acc) / diag
}

// substRows is the substitution kernel of SolveTriInto: it solves the
// rows order[lo:hi] front to back or, with order nil, the rows
// lo..hi-1 in substitution order (ascending when lower, descending
// otherwise). It trusts what buildSolvePlan proved of every row — a
// stored diagonal, no entry on the wrong side — so on sorted rows the
// diagonal is the row's last stored entry (lower) or its first (upper),
// and the row's sum runs over the contiguous rest with no per-entry
// test. It adds in CSR storage order, as solveRow does, so the two are
// bit-identical. Each row still checks that its end entry is a non-zero
// diagonal: an operand edited behind a cached plan panics with an
// ErrSingular-wrapped error, as solveRow does, and never yields a wrong
// x.
//
//spgemm:hotpath
func substRows[T sparse.Number](l *sparse.CSR[T], dst, b []T, order []sparse.Index, lo, hi int, lower bool) {
	rowPtr, colIdx, val := l.RowPtr, l.ColIdx, l.Val
	var zero T
	for s := lo; s < hi; s++ {
		i := s
		if order != nil {
			i = int(order[s])
		} else if !lower {
			i = lo + hi - 1 - s
		}
		first, end := rowPtr[i], rowPtr[i+1]
		d := end - 1
		if !lower {
			d = first
			first++
		} else {
			end = d
		}
		if first > end || int(colIdx[d]) != i || val[d] == zero {
			//lint:ignore hotpathalloc failure path: the solve is over
			panic(fmt.Errorf("%w: row %d does not end in a non-zero diagonal", ErrSingular, i))
		}
		cols, vals := colIdx[first:end], val[first:end]
		vals = vals[:len(cols)]
		var acc T
		for k, j := range cols {
			acc += vals[k] * dst[j]
		}
		dst[i] = (b[i] - acc) / val[d]
	}
}

// solveSerial is the engine-backed serial execution: one worker sweeps
// the rows with substRows in substitution order (forward when lower,
// backward otherwise), one block of pollStride rows per call, polling
// cancellation between blocks. The loop is written out rather than run
// through forEachSolved's callback, so the warm path stays
// allocation-free and pays no indirect call per row; the kernel's
// ErrSingular panic is recovered into the typed return.
func solveSerial[T sparse.Number](
	ctx context.Context, l *sparse.CSR[T], dst, b []T, lower bool,
) (err error) {
	defer func() {
		err = recoverSingular(recover(), err)
	}()
	const pollStride = 1024
	n := l.Rows
	for lo := 0; lo < n; lo += pollStride {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		hi := min(lo+pollStride, n)
		if lower {
			substRows(l, dst, b, nil, lo, hi, true)
		} else {
			substRows(l, dst, b, nil, n-hi, n-lo, false)
		}
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
	// multi-tile waves, so the one whose verdict the gap decides: the
	// medians of one 16-run session (1.41–2.19 and 2.57–3.60), both on
	// substRows, the kernel every solve runs.
	solveSubstNsPerNnz = 1.78
	solveLevelNsPerNnz = 3.23
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

// forEachSolved calls fn on each of the n rows in substitution order —
// ascending for a lower triangle, descending for upper — stopping at
// fn's first error.
func forEachSolved(n int, lower bool, fn func(i int) error) error {
	for k := 0; k < n; k++ {
		i := k
		if !lower {
			i = n - 1 - k
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// SolvePlanOf returns the plan SolveTriInto runs L on under cfg and
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
	if err := so.validate(); err != nil {
		return nil, err
	}
	plan, err := solvePlanFor(cfg.Context, cfg, l, so, workers, nil)
	return plan.Solve, err
}

// buildSolvePlan runs the level-set analysis, the wave coarsening and
// the serial-or-waves verdict for one solve flavor on workers workers:
// O(nnz) like every plan pass. Levels are computed in substitution
// order (ascending rows for a lower triangle, descending for upper) and a stable counting sort groups the slots by level. A level
// of at least MergeBelow rows splits greedily at ~grain row work per
// tile; every run of consecutive levels left with one tile merges into
// one wave of one tile, whose slots a second counting sort puts back
// into substitution order — which honors every dependency inside the
// tile, and is the order one worker substitutes fastest in. A plan whose
// widest wave is one tile is therefore a single serial wave. The
// verdict compares the two predictions of solvePredict.
func buildSolvePlan[T sparse.Number](l *sparse.CSR[T], so SolveOpts, workers int) (*exec.SolvePlan, error) {
	lower := so.Tri == Lower
	n := l.Rows

	level := make([]int32, n)
	rowWork := make([]int64, n)
	maxLv := int32(-1)
	var totalFlops int64
	// Substitution order guarantees every dependency's level is final
	// before it is read.
	err := forEachSolved(n, lower, func(i int) error {
		lv := int32(0)
		var w int64
		diag := false
		for _, j := range l.RowCols(i) {
			jj := int(j)
			w++
			if jj == i {
				diag = true
				continue
			}
			if dep := jj < i; dep != lower {
				return fmt.Errorf("%w: entry (%d,%d) lies outside the %s triangle",
					ErrNotTriangular, i, jj, so.Tri)
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
	if numLv == 0 {
		return &exec.SolvePlan{Serial: true}, nil
	}

	grain := so.WaveGrain
	if grain <= 0 {
		avgRowWork := float64(totalFlops) / float64(n)
		grain = min(max(int64(avgRowWork*solveGrainRows), solveMinGrain), solveMaxGrain)
	}

	// Stable counting sort of the substitution order by level: slots
	// grouped by level, substitution order preserved within each level.
	lvStart := make([]int, numLv+1)
	lvFlops := make([]int64, numLv)
	_ = forEachSolved(n, lower, func(i int) error {
		lvStart[level[i]+1]++
		lvFlops[level[i]] += rowWork[i]
		return nil
	})
	for k := 0; k < numLv; k++ {
		lvStart[k+1] += lvStart[k]
	}
	order := make([]sparse.Index, n)
	fill := make([]int, numLv)
	copy(fill, lvStart[:numLv])
	_ = forEachSolved(n, lower, func(i int) error {
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
		_ = forEachSolved(n, lower, func(i int) error {
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
	}, nil
}

// solvePlanFor resolves the level-schedule plan through the engine's
// cache. Unlike SpGEMM plans, a stale solve plan is a correctness bug
// (the wave order encodes dependencies), so the key content-hashes the
// structure on top of the operand fingerprint; the hash is O(rows) per
// call, paid on hits too. The verdict is priced for
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
