package core

import (
	"context"
	"math/bits"
	"slices"

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
// that iterates (k-truss rounds) keeps its result
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

// maskRows is the plan's one pass over the mask rows, as a plan without
// tiles: the largest row (the accumulator's row bound, §III-C sizing)
// and the rows' column spans (the dense window's, accum.Spans).
func maskRows[T sparse.Number](ctx context.Context, m *sparse.CSR[T], p int) (exec.Plan, error) {
	p = sched.BlockWorkers(p, m.Rows)
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
	inj  chaos.Injector
	rows []sparse.Index // a one-tile run's live rows (liveRows), or nil
	// lower reads every operand row i as its part below column i: the
	// strictly lower view (MaskedSpGEMMStreamLower); merge runs the
	// view's rows through rowDot instead of the accumulator.
	lower, merge bool
}

// rowSink is what happens to a gathered row beyond staying appended in
// the tile's staging buffer. It is chosen once per run; a nil sink is
// the plain product.
type rowSink[T sparse.Number] interface {
	// row receives output row i, freshly gathered at buf.Cols[from:] /
	// buf.Vals[from:]. It may consume the row, or rewrite and truncate it
	// in place; whatever it leaves is the row's staged content.
	row(i int, buf *exec.TileBuf[T], from int)
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
// rows of one tile with the worker-local accumulator and stages them in
// buf. Staged whole, the tile's rows land back to back with their
// lengths in buf.RowNNZ, the buffer sized by the tile's mask volume
// (output ⊆ mask); with perRow set buf holds one row at a time and the
// sink must consume it. It returns the entries the sink kept (all the
// row kernels gathered, without one). wc, when non-nil, receives the
// worker's exact operation counts.
//
// When k.rows is set the loop walks that list of live rows instead of
// the range, and every row left out, one whose kernel would return
// without a flop, stages RowNNZ 0: results, counters and accumulator
// traffic are the full walk's, at a cost in live rows, not height.
//
//spgemm:hotpath
func runTile[T sparse.Number, S semiring.Semiring[T]](
	k kernel[T, S], acc accum.Accumulator[T], tile tiling.Tile,
	buf *exec.TileBuf[T], perRow bool, sink rowSink[T], wc *obs.WorkerCounters,
) (kept int64) {
	if perRow {
		stage(buf, 0, 0)
	} else {
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
		aCols, aVals := viewRow(k.a, sparse.Index(i), k.lower)
		if k.merge {
			rowDot(k.sr, k.a, aCols, aVals, buf, wc)
		} else {
			maskCols := k.m.RowCols(i)
			if k.lower {
				maskCols = maskCols[:len(aCols)] // the view's mask is its A
			}
			rowStep(&k, acc, aCols, aVals, maskCols, buf, wc)
		}
		if sink != nil {
			sink.row(i, buf, from)
		}
		n := len(buf.Cols) - from
		kept += int64(n)
		if !perRow {
			buf.RowNNZ[i-tile.Lo] = int32(n)
		}
	}
	return kept
}

// liveRows lists, ascending and in dst's storage (never nil), the rows of
// tile whose kernel can produce output: a non-empty A row and, unless
// the space is Vanilla, a non-empty mask row.
//
//spgemm:hotpath
func (p *product[T, S]) liveRows(tile tiling.Tile, dst []sparse.Index) []sparse.Index {
	if dst == nil {
		//lint:ignore hotpathalloc amortized: once per workspace; the appends below grow it to the live-row high-water mark
		dst = make([]sparse.Index, 0, 64)
	}
	dst = dst[:0]
	// Locals, so the loop reloads nothing through p across its appends.
	ap, mp, vanilla := p.a.RowPtr, p.m.RowPtr, p.cfg.Iteration == Vanilla
	for i := tile.Lo; i < tile.Hi; i++ {
		if ap[i+1] != ap[i] && (vanilla || mp[i+1] != mp[i]) {
			dst = append(dst, sparse.Index(i))
		}
	}
	return dst
}

// rowStep is one row of the skeleton: the sparse left row (aCols, aVals)
// times k.b under mask row maskCols, traversed in the configured
// iteration space and gathered onto buf. A row with an empty left row
// has no output and is skipped, and so is a row with an empty mask,
// except under Vanilla, which pays for the full product by definition.
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
		rowVanilla(acc, aCols, aVals, k.b, k.lower, wc)
	case MaskLoad:
		rowMaskLoad(acc, aCols, aVals, k.b, k.lower, maskCols, wc)
	case CoIter:
		rowCoIter(k.sr, acc, aCols, aVals, k.b, k.lower, maskCols, wc)
	case Hybrid:
		rowHybrid(k.sr, acc, aCols, aVals, k.b, k.lower, maskCols, k.kappa, wc)
	}
	buf.Cols, buf.Vals = acc.Gather(maskCols, buf.Cols, buf.Vals)
}

// viewRow is x's row k as the kernels read it: whole, or under the lower
// view its part below column k, found where the row is read, so the view
// keeps no per-row array.
//
//spgemm:hotpath
func viewRow[T sparse.Number](x *sparse.CSR[T], k sparse.Index, lower bool) ([]sparse.Index, []T) {
	cols, vals := x.Row(int(k))
	if lower {
		n := below(cols, k)
		return cols[:n], vals[:n]
	}
	return cols, vals
}

// below counts the entries of the ascending cols less than k: by a
// scan up to 64 entries, where it costs less than a binary search
// (BenchmarkViewKernels: uk-2002's accumulator path runs 20 % faster
// scanning up to 64 than up to 8), by binary search past them.
//
//spgemm:hotpath
func below(cols []sparse.Index, k sparse.Index) int {
	if len(cols) > 64 {
		n, _ := slices.BinarySearch(cols, k)
		return n
	}
	n := 0
	for n < len(cols) && cols[n] < k {
		n++
	}
	return n
}

// rowDot is the lower view's merge row kernel, for an a symmetric in
// pattern and values: row i of L ⊙ (L × L) as, for each j of L's row i
// (aCols, its own mask), C[i,j] = ⊕ over k in (j, i) of A[i,k] ⊗ A[j,k]
// — A[j,k] read for L[k,j] — merging aCols after j with A's row j after
// its diagonal. It needs no accumulator, and applies ⊕ in k order as
// the accumulator path does, so the two are bit-identical. Flops, when
// recorded, stays the Eq. 2 volume the accumulator path reports.
//
//spgemm:hotpath
func rowDot[T sparse.Number, S semiring.Semiring[T]](
	sr S, a *sparse.CSR[T], aCols []sparse.Index, aVals []T, buf *exec.TileBuf[T], wc *obs.WorkerCounters,
) {
	// The last j has no k in (j, i).
	for p := 0; p+1 < len(aCols); p++ {
		j := aCols[p]
		jCols, jVals := a.Row(int(j))
		q := below(jCols, j+1)
		if x, ok := dot(sr, aCols[p+1:], aVals[p+1:], jCols[q:], jVals[q:]); ok {
			buf.Cols = append(buf.Cols, j)
			buf.Vals = append(buf.Vals, x)
		}
	}
	if wc != nil {
		var flops int64
		for _, k := range aCols {
			flops += int64(below(a.RowCols(int(k)), k))
		}
		wc.Flops.Add(flops)
	}
}

// dot is ⊕ over the columns k common to the ascending xc and yc of
// xv[k] ⊗ yv[k], in k order; ok is false when they share none. It
// gallops through the longer list, one exponential search per entry of
// the shorter, when that costs less than the linear merge:
// short·log2(long) < short + long.
//
//spgemm:hotpath
func dot[T sparse.Number, S semiring.Semiring[T]](
	sr S, xc []sparse.Index, xv []T, yc []sparse.Index, yv []T,
) (sum T, ok bool) {
	switch s, l := min(len(xc), len(yc)), max(len(xc), len(yc)); {
	case s*bits.Len(uint(l)) >= s+l:
		for p, q := 0, 0; p < len(xc) && q < len(yc); {
			switch {
			case xc[p] < yc[q]:
				p++
			case xc[p] > yc[q]:
				q++
			default:
				sum, ok = fold(sr, sum, ok, sr.Times(xv[p], yv[q]))
				p++
				q++
			}
		}
	case len(xc) == s:
		q := 0
		for p, k := range xc {
			if q = seek(yc, q, k); q == len(yc) {
				break
			}
			if yc[q] == k {
				sum, ok = fold(sr, sum, ok, sr.Times(xv[p], yv[q]))
			}
		}
	default:
		p := 0
		for q, k := range yc {
			if p = seek(xc, p, k); p == len(xc) {
				break
			}
			if xc[p] == k {
				sum, ok = fold(sr, sum, ok, sr.Times(xv[p], yv[q]))
			}
		}
	}
	return sum, ok
}

// fold is sum ⊕ x, or x when ok is false: the first term starts the sum.
//
//spgemm:hotpath
func fold[T sparse.Number, S semiring.Semiring[T]](sr S, sum T, ok bool, x T) (T, bool) {
	if ok {
		x = sr.Plus(sum, x)
	}
	return x, true
}

// seek is the first position at or after from whose column is at least
// k (len(cols) when none is): a galloping search that doubles its step
// away from from, then bisects the last step.
//
//spgemm:hotpath
func seek(cols []sparse.Index, from int, k sparse.Index) int {
	lo, hi := from, from
	for step := 1; hi < len(cols) && cols[hi] < k; step <<= 1 {
		lo, hi = hi+1, hi+step
	}
	return search(cols, lo, min(hi, len(cols)), k)
}

// search is the first position in [lo, hi) whose column is at least k
// (hi when none is), by bisection. It is hand-rolled, not
// sort.Search, whose closure would be re-created (and on some inlining
// decisions heap-allocated) per probe of an Eq. 3 inner loop.
//
//spgemm:hotpath
func search(cols []sparse.Index, lo, hi int, k sparse.Index) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cols[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
	acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T], lower bool,
	wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	var flops int64
	for kk, k := range aCols {
		bCols, bVals := viewRow(b, k, lower)
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
	acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T], lower bool,
	maskCols []sparse.Index, wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	acc.LoadMask(maskCols)
	var flops int64
	for kk, k := range aCols {
		bCols, bVals := viewRow(b, k, lower)
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
	sr S, acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T], lower bool,
	maskCols []sparse.Index, wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	// Flops stays the Eq. 2 volume Σ nnz(B[k,:]) even though CoIter
	// touches fewer entries, so the counter is comparable across
	// iteration spaces and matches the planner's estimate exactly.
	var flops int64
	for kk, k := range aCols {
		bCols, bVals := viewRow(b, k, lower)
		flops += int64(len(bCols))
		coIterate(sr, acc, aVals[kk], maskCols, bCols, bVals)
	}
	if wc != nil {
		wc.Flops.Add(flops)
	}
}

// coIterate performs one mask-vs-B-row intersection by binary search
// (Eq. 3 cost: nnz(M[i,:])·log2 nnz(B[k,:])). The search range shrinks
// monotonically because mask columns are ascending.
//
//spgemm:hotpath
func coIterate[T sparse.Number, S semiring.Semiring[T]](
	sr S, acc accum.Accumulator[T], aik T,
	maskCols, bCols []sparse.Index, bVals []T,
) {
	lo := 0
	for _, j := range maskCols {
		if lo = search(bCols, lo, len(bCols), j); lo >= len(bCols) {
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
	sr S, acc accum.Accumulator[T], aCols []sparse.Index, aVals []T, b *sparse.CSR[T], lower bool,
	maskCols []sparse.Index, kappa float64, wc *obs.WorkerCounters,
) {
	acc.BeginRow()
	acc.LoadMask(maskCols)
	nnzM := len(maskCols)
	var flops, coIter int64
	for kk, k := range aCols {
		bCols, bVals := viewRow(b, k, lower)
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
	if p = sched.BlockWorkers(p, rows); p <= 1 {
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
