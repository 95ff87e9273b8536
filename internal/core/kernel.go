package core

import (
	"context"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// MaskedSpGEMM computes C = M ⊙ (A × B) over the given semiring with the
// given configuration. The mask is structural (GraphBLAS Boolean mask):
// an output entry may exist only where M stores an entry, regardless of
// M's values. All operands must be CSR with sorted rows; the result is
// CSR with sorted rows.
//
// Shape requirements: A is m×k, B is k×n, M is m×n.
func MaskedSpGEMM[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
) (*sparse.CSR[T], error) {
	return MaskedSpGEMMInto(sr, nil, m, a, b, cfg)
}

// MaskedSpGEMMInto is MaskedSpGEMM assembling the result into dst's
// storage, which it overwrites, grows only when too small, and returns;
// a nil dst allocates. dst must not share storage with m, a or b
// (ErrConfig). After an error dst's contents are unspecified. A caller
// that iterates (k-truss rounds, BC's backward sweep) keeps its result
// storage across calls instead of allocating a matrix per call.
func MaskedSpGEMMInto[T sparse.Number, S semiring.Semiring[T]](
	sr S, dst, m, a, b *sparse.CSR[T], cfg Config,
) (*sparse.CSR[T], error) {
	p := newProduct(sr, m, a, b, cfg)
	p.dst = dst
	return p.run(cfg.Context)
}

// MaskedSpGEMMInstrumented is MaskedSpGEMM with per-operation counting:
// it returns the actual accumulator traffic of the run, the ground
// truth that validates the symbolic Profile and quantifies how much
// work each iteration space really does on a given input.
func MaskedSpGEMMInstrumented[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
) (*sparse.CSR[T], Counters, error) {
	var totals atomicCounters
	var decorators []*countingAccumulator[T]
	p := newProduct(sr, m, a, b, cfg)
	p.wrap = func(inner accum.Accumulator[T]) accum.Accumulator[T] {
		d := &countingAccumulator[T]{inner: inner}
		decorators = append(decorators, d)
		return d
	}
	c, err := p.run(cfg.Context)
	if err != nil {
		return nil, Counters{}, err
	}
	for _, d := range decorators {
		d.flushInto(&totals)
	}
	return c, totals.snapshot(), nil
}

// planSerialCutoff is the row count below which the plan-construction
// and assembly passes stay serial: goroutine fan-out costs more than a
// short O(rows) loop. A variable so tests can lower it to exercise the
// parallel paths on small inputs.
var planSerialCutoff = 1 << 14

// blockWorkers returns the worker count to use for an O(n) plan pass:
// 1 below the crossover threshold, p otherwise.
func blockWorkers(p, n int) int {
	if n < planSerialCutoff {
		return 1
	}
	return p
}

// maskRows is the plan's one pass over the mask rows, as a plan without
// tiles: the largest row (the accumulator's row bound, §III-C sizing)
// and the rows' column spans (the dense window's, accum.Spans).
func maskRows[T sparse.Number](ctx context.Context, m *sparse.CSR[T], p int) (exec.Plan, error) {
	p = blockWorkers(p, m.Rows)
	if p <= 1 {
		return maskRowRange(m, 0, m.Rows), nil
	}
	p = sched.Workers(p)
	parts := make([]exec.Plan, p)
	if err := sched.BlocksE(ctx, p, m.Rows, func(w, lo, hi int) {
		parts[w] = maskRowRange(m, lo, hi)
	}); err != nil {
		return exec.Plan{}, err
	}
	var plan exec.Plan
	for _, part := range parts {
		plan.RowCap = max(plan.RowCap, part.RowCap)
		plan.Spans.Merge(part.Spans)
	}
	return plan, nil
}

// maskRowRange is maskRows over rows [lo, hi).
func maskRowRange[T sparse.Number](m *sparse.CSR[T], lo, hi int) (plan exec.Plan) {
	ptr, idx := m.RowPtr, m.ColIdx
	for i := lo; i < hi; i++ {
		a, b := ptr[i], ptr[i+1]
		if a == b {
			continue
		}
		plan.RowCap = max(plan.RowCap, b-a)
		plan.Spans.Add(int64(idx[b-1]-idx[a])+1, b-a)
	}
	return plan
}

// kernel is the loop-invariant half of the row-wise skeleton: the
// operands of one product, the iteration space, and the chaos seam. One
// value describes a whole run and is shared read-only by its workers;
// it stays under the compiler's 128-byte by-value capture threshold so
// the run's tile closure carries it without a second heap object.
type kernel[T sparse.Number, S semiring.Semiring[T]] struct {
	sr      S
	m, a, b *sparse.CSR[T]
	iter    IterationSpace
	kappa   float64
	// inj is the armed chaos injector, nil in production.
	inj chaos.Injector
	// comp selects the complemented mask: rows are computed by rowComp on
	// the worker's dense scratch instead of rowStep on its accumulator.
	comp bool
	// live, when non-nil, marks the rows anyone will read: a row whose
	// live row is empty is skipped outright (a chain's first stage skips
	// rows the second stage's mask discards).
	live *sparse.CSR[T]
	rows []sparse.Index // a one-tile run's live rows (liveRows), or nil
}

// rowSink is what happens to a gathered row beyond staying appended in
// the tile's staging buffer. It is chosen once per run; a nil sink is
// the plain product.
type rowSink[T sparse.Number] interface {
	// row receives output row i, freshly gathered at buf.Cols[from:] /
	// buf.Vals[from:]. It may consume the row, or rewrite and truncate it
	// in place; whatever it leaves is the row's staged content.
	row(i int, buf *exec.TileBuf[T], from int)
	// account folds one finished tile into the worker's fused-counter
	// block: gathered is what the row kernels produced, kept what the
	// sink left staged.
	account(fc *obs.FusedCounters, gathered, kept int64)
}

// stage readies a staging buffer for a tile of rows rows holding up to
// vol entries. Buffers large enough from an earlier run of the (possibly
// pooled) workspace are truncated in place, not reallocated.
//
//spgemm:hotpath
func stage[T sparse.Number](buf *exec.TileBuf[T], rows int, vol int64) {
	if cap(buf.RowNNZ) < rows {
		buf.RowNNZ = make([]int32, rows) //lint:ignore hotpathalloc amortized: grows once per tile-height high-water mark
	}
	buf.RowNNZ = buf.RowNNZ[:rows]
	if int64(cap(buf.Cols)) < vol || int64(cap(buf.Vals)) < vol {
		//lint:ignore hotpathalloc amortized: first run at this mask volume sizes the staging buffers
		buf.Cols = make([]sparse.Index, 0, vol)
		buf.Vals = make([]T, 0, vol) //lint:ignore hotpathalloc amortized: sized with Cols above
	} else {
		buf.Cols = buf.Cols[:0]
		buf.Vals = buf.Vals[:0]
	}
}

// runTile is the tile loop of the masked family: it computes the output
// rows of one tile with the worker-local accumulator (or, for the
// complemented mask, dense scratch sc) and stages them in buf. Staged
// whole, the tile's rows land back to back with their lengths in
// buf.RowNNZ, the buffer sized by the tile's mask volume (output ⊆
// mask); with perRow set buf holds one row at a time and the sink must
// consume it. It returns the entries the row kernels gathered and the
// entries the sink kept. wc, when non-nil, receives the worker's exact
// operation counts.
//
// When k.rows is set the loop walks that list of live rows instead of
// the range, and every row left out, one whose kernel would return
// without a flop, stages RowNNZ 0: results, counters and accumulator
// traffic are the full walk's, at a cost in live rows, not height.
//
//spgemm:hotpath
func runTile[T sparse.Number, S semiring.Semiring[T]](
	k kernel[T, S], acc accum.Accumulator[T], sc *exec.DenseScratch[T],
	tile tiling.Tile, buf *exec.TileBuf[T], perRow bool, sink rowSink[T],
	wc *obs.WorkerCounters,
) (gathered, kept int64) {
	switch {
	case perRow:
		stage(buf, 0, 0)
	case k.comp:
		// ¬M does not bound the output; the buffer grows by append.
		stage(buf, tile.Rows(), 0)
	default:
		stage(buf, tile.Rows(), k.m.RowPtr[tile.Hi]-k.m.RowPtr[tile.Lo])
	}
	n := tile.Rows()
	if k.rows != nil {
		n = len(k.rows)
		clear(buf.RowNNZ)
	}
	for r := 0; r < n; r++ {
		i := tile.Lo + r
		if k.rows != nil {
			i = int(k.rows[r])
		}
		if k.inj != nil {
			// RowKernel seam: panics here exercise mid-tile unwinding with
			// the accumulator in an arbitrary intermediate state.
			//lint:ignore hotpathalloc allocates only when a fault fires, and the run dies with it
			chaos.StepHard(k.inj, chaos.RowKernel)
		}
		if perRow {
			buf.Cols = buf.Cols[:0]
			buf.Vals = buf.Vals[:0]
		}
		from := len(buf.Cols)
		if k.live == nil || k.live.RowNNZ(i) > 0 {
			aCols, aVals := k.a.Row(i)
			if k.comp {
				rowComp(&k, sc, aCols, aVals, k.m.RowCols(i), buf, wc)
			} else {
				rowStep(&k, acc, aCols, aVals, k.m.RowCols(i), buf, wc)
			}
		}
		gathered += int64(len(buf.Cols) - from)
		if sink != nil {
			sink.row(i, buf, from)
		}
		n := len(buf.Cols) - from
		kept += int64(n)
		if !perRow {
			buf.RowNNZ[i-tile.Lo] = int32(n)
		}
	}
	return gathered, kept
}

// liveRows lists, ascending and in dst's storage (never nil), the rows of
// tile whose kernel can produce output: under ¬M, a mask row that is not
// full and an A row that reaches a non-empty B row; otherwise a non-empty
// A row and, unless the space is Vanilla, a non-empty mask row.
//
//spgemm:hotpath
func (p *product[T, S]) liveRows(tile tiling.Tile, dst []sparse.Index) []sparse.Index {
	if dst == nil {
		//lint:ignore hotpathalloc amortized: once per workspace; the appends below grow it to the live-row high-water mark
		dst = make([]sparse.Index, 0, 64)
	}
	dst = dst[:0]
	// Locals, so the loop reloads nothing through p across its appends.
	ap, ac, mp, bp := p.a.RowPtr, p.a.ColIdx, p.m.RowPtr, p.b.RowPtr
	comp, vanilla, full := p.comp, p.cfg.Iteration == Vanilla, int64(p.b.Cols)
	for i := tile.Lo; i < tile.Hi; i++ {
		lo, hi := ap[i], ap[i+1]
		switch {
		case lo == hi:
		case !comp:
			if vanilla || mp[i+1] != mp[i] {
				dst = append(dst, sparse.Index(i))
			}
		case mp[i+1]-mp[i] < full:
			for _, k := range ac[lo:hi] {
				if bp[k+1] != bp[k] {
					dst = append(dst, sparse.Index(i))
					break
				}
			}
		}
	}
	return dst
}

// rowStep is one row of the skeleton: the sparse left row (aCols, aVals)
// times k.b under mask row maskCols, traversed in the configured
// iteration space and gathered onto buf. The left row is explicit so a
// chain's second stage can feed it intermediate rows that never became
// a CSR. A row with an empty left row has no output and is skipped, and
// so is a row with an empty mask, except under Vanilla, which pays for
// the full product by definition.
//
//spgemm:hotpath
func rowStep[T sparse.Number, S semiring.Semiring[T]](
	k *kernel[T, S], acc accum.Accumulator[T], aCols []sparse.Index, aVals []T,
	maskCols []sparse.Index, buf *exec.TileBuf[T], wc *obs.WorkerCounters,
) {
	if len(aCols) == 0 || len(maskCols) == 0 && k.iter != Vanilla {
		return
	}
	switch k.iter {
	case Vanilla:
		rowVanilla(acc, aCols, aVals, k.b, wc)
	case MaskLoad:
		rowMaskLoad(acc, aCols, aVals, k.b, maskCols, wc)
	case CoIter:
		rowCoIter(k.sr, acc, aCols, aVals, k.b, maskCols, wc)
	case Hybrid:
		rowHybrid(k.sr, acc, aCols, aVals, k.b, maskCols, k.kappa, wc)
	}
	buf.Cols, buf.Vals = acc.Gather(maskCols, buf.Cols, buf.Vals)
}

// rowVanilla is the Fig. 3 algorithm: accumulate the full product row,
// mask only at gather time. The wasted updates outside the mask are the
// point — this is the cost the better iteration spaces avoid.
//
// Like every linear traversal here it hands the accumulator one whole B
// row per call (accum's batched contract): the accumulator sits behind
// an interface and the semiring behind a generic dictionary, so a
// per-entry call would be paid once per Eq. 2 FLOP. Recorder counts
// collect in locals and reach wc once per output row.
//
//spgemm:hotpath
func rowVanilla[T sparse.Number](
	acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T],
	wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	var flops int64
	for kk, k := range aCols {
		bCols, bVals := b.Row(int(k))
		flops += int64(len(bCols))
		acc.Scatter(aVals[kk], bCols, bVals)
	}
	if wc != nil {
		wc.Flops.Add(flops)
	}
}

// rowMaskLoad is the Fig. 5 (GrB) algorithm: load the mask into the
// accumulator, then linearly scan each B row, discarding updates that
// miss the mask.
//
//spgemm:hotpath
func rowMaskLoad[T sparse.Number](
	acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T],
	maskCols []sparse.Index, wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	acc.LoadMask(maskCols)
	var flops int64
	for kk, k := range aCols {
		bCols, bVals := b.Row(int(k))
		flops += int64(len(bCols))
		acc.ScatterMasked(aVals[kk], bCols, bVals)
	}
	if wc != nil {
		wc.Flops.Add(flops)
	}
}

// rowCoIter is the Fig. 7 algorithm: iterate the mask row and binary
// search each B row for the mask's columns, touching only candidate
// output positions.
//
//spgemm:hotpath
func rowCoIter[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T],
	maskCols []sparse.Index, wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	// Flops stays the Eq. 2 volume Σ nnz(B[k,:]) even though CoIter
	// touches fewer entries, so the counter is comparable across
	// iteration spaces and matches the planner's estimate exactly.
	var flops int64
	for kk, k := range aCols {
		bCols, bVals := b.Row(int(k))
		flops += int64(len(bCols))
		coIterate(sr, acc, aVals[kk], maskCols, bCols, bVals)
	}
	if wc != nil {
		wc.Flops.Add(flops)
	}
}

// coIterate performs one mask-vs-B-row intersection by binary search
// (Eq. 3 cost: nnz(M[i,:])·log2 nnz(B[k,:])). The search range shrinks
// monotonically because mask columns are ascending. The search is
// hand-rolled rather than sort.Search: the closure the latter takes
// would be re-created (and on some inlining decisions, heap-allocated)
// per (mask entry × B row) pair, squarely inside the Eq. 3 inner loop.
//
//spgemm:hotpath
func coIterate[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], aik T,
	maskCols, bCols []sparse.Index, bVals []T,
) {
	lo := 0
	for _, j := range maskCols {
		// Binary search for the first bCols[p] >= j in bCols[lo:].
		p, hi := lo, len(bCols)
		for p < hi {
			mid := int(uint(p+hi) >> 1)
			if bCols[mid] < j {
				p = mid + 1
			} else {
				hi = mid
			}
		}
		lo = p
		if lo >= len(bCols) {
			return
		}
		if bCols[lo] == j {
			acc.Update(j, sr.Times(aik, bVals[lo]))
			lo++
			if lo >= len(bCols) {
				return
			}
		}
	}
}

// rowHybrid is the Fig. 9 algorithm: the mask is loaded (the linear
// branch needs it), then each B row is processed by whichever of the two
// strategies the Eq. 3 cost model predicts is cheaper.
//
//spgemm:hotpath
func rowHybrid[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T],
	maskCols []sparse.Index, kappa float64, wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	acc.LoadMask(maskCols)
	nnzM := len(maskCols)
	var flops, coIter int64
	for kk, k := range aCols {
		bCols, bVals := b.Row(int(k))
		flops += int64(len(bCols))
		if coIterCheaper(nnzM, len(bCols), kappa) {
			coIter++
			coIterate(sr, acc, aVals[kk], maskCols, bCols, bVals)
		} else {
			acc.ScatterMasked(aVals[kk], bCols, bVals)
		}
	}
	if wc != nil {
		wc.Flops.Add(flops)
		wc.CoIterPicks.Add(coIter)
		wc.LinearPicks.Add(int64(len(aCols)) - coIter)
	}
}

// assembleE stitches the per-tile outputs into one CSR matrix on p
// workers, in dst's storage (a new matrix when dst is nil): each array
// is reused when large enough and allocated otherwise, and a reused
// RowPtr is cleared first (fresh storage is zero already). The three
// passes — row-count scatter, row-pointer prefix sum, and per-tile
// payload copy — each write disjoint regions (tiles partition the rows,
// so their RowPtr slots and payload ranges never overlap), making the
// parallel result bit-identical to the serial one. Small results, or
// p <= 1, take the serial path unchanged. ctx cancels between passes and
// blocks; worker panics surface as errors.
func assembleE[T sparse.Number](
	ctx context.Context, dst *sparse.CSR[T], rows, cols int, tiles []tiling.Tile, outs []exec.TileBuf[T], p int,
) (*sparse.CSR[T], error) {
	c := dst
	if c == nil {
		c = new(sparse.CSR[T])
	}
	rowPtr := c.RowPtr
	if cap(rowPtr) > rows {
		rowPtr = rowPtr[:rows+1]
		clear(rowPtr)
	} else {
		rowPtr = make([]int64, rows+1)
	}
	*c = sparse.CSR[T]{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: c.ColIdx, Val: c.Val}
	if p = blockWorkers(p, rows); p <= 1 {
		var nnz int64
		for t := range outs {
			for r, n := range outs[t].RowNNZ {
				c.RowPtr[tiles[t].Lo+r+1] = int64(n)
				nnz += int64(n)
			}
		}
		for i := 0; i < rows; i++ {
			c.RowPtr[i+1] += c.RowPtr[i]
		}
		c.ColIdx = resize(c.ColIdx, nnz)
		c.Val = resize(c.Val, nnz)
		for t := range outs {
			lo := c.RowPtr[tiles[t].Lo]
			copy(c.ColIdx[lo:], outs[t].Cols)
			copy(c.Val[lo:], outs[t].Vals)
		}
		return c, nil
	}
	if err := sched.BlocksE(ctx, p, len(tiles), func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			base := tiles[t].Lo
			for r, n := range outs[t].RowNNZ {
				c.RowPtr[base+r+1] = int64(n)
			}
		}
	}); err != nil {
		return nil, err
	}
	if err := tiling.InclusiveScanE(ctx, c.RowPtr[1:], p); err != nil {
		return nil, err
	}
	nnz := c.RowPtr[rows]
	c.ColIdx = resize(c.ColIdx, nnz)
	c.Val = resize(c.Val, nnz)
	if err := sched.BlocksE(ctx, p, len(tiles), func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			off := c.RowPtr[tiles[t].Lo]
			copy(c.ColIdx[off:], outs[t].Cols)
			copy(c.Val[off:], outs[t].Vals)
		}
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// resize returns s[:n] when s can hold n elements, else fresh storage.
// The assembly overwrites all n, so reused contents need no clearing.
func resize[E any](s []E, n int64) []E {
	if int64(cap(s)) < n {
		return make([]E, n)
	}
	return s[:n]
}
