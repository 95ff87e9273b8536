package core

import (
	"context"
	"unsafe"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// This file is the fused-multiply pipeline: chained masked products
// executed tile by tile so the first product's output is consumed by
// the second product's row kernel while still cache-hot, staged through
// exec.Workspace tile buffers instead of a fully assembled intermediate
// CSR. Three fusion shapes cover the repo's chained kernels, each a row
// sink handed to the shared run protocol (run.go):
//
//   - FusedMaskedSpGEMM: the general two-multiply chain
//     D = M2 ⊙ ((M1 ⊙ (A×B)) × C) — rows feed the second stage;
//   - MaskedSpGEMMSelect: multiply plus per-entry keep/rewrite — the
//     k-truss support-and-prune round without the support matrix;
//   - MaskedSpGEMMStream: multiply plus per-row consumption with no
//     assembly at all — the BC backward sweep's accumulation.
//
// The chain's per-tile mode decision is the Eq. 2 fusion cost model: a
// tile whose estimated intermediate footprint (first-stage mask volume
// × entry size — the same nnz(M) bound that sizes the accumulators) fits
// fuseTileBudget is staged whole, keeping the stage-1 B rows hot
// across the tile; a tile that exceeds the budget streams row at a
// time, bounding the live intermediate to a single row. Both modes
// perform identical per-row arithmetic, so the output is bit-identical
// to materialize-then-multiply.

// fuseTileBudget is the bytes a chain may stage per tile for its
// intermediate product: 1 MiB, sized to keep a staged tile inside a
// typical per-core L2. A variable so tests can force the streamed
// branch; not a knob.
var fuseTileBudget int64 = 1 << 20

// SetFuseTileBudgetForTest overrides the fused staging budget and
// returns the previous value: 1 streams every non-empty tile row at a
// time. Not for production use.
func SetFuseTileBudgetForTest(bytes int64) (old int64) {
	old = fuseTileBudget
	fuseTileBudget = bytes
	return old
}

// fusedEntrySize is the staging cost of one intermediate entry: a
// column index plus a value.
func fusedEntrySize[T sparse.Number]() int64 {
	var z T
	var j sparse.Index
	return int64(unsafe.Sizeof(z)) + int64(unsafe.Sizeof(j))
}

// chainRowCap resolves a chain's second-stage accumulator row bound (max
// nnz of an M2 row; the stage-2 output column count under Vanilla, since
// the flop bound of a never-materialized left operand is unknown) and
// M2's row spans, as a plan without tiles — through the engine's plan
// cache when available, under a rowcap-only pseudo key (zero B operand,
// so it can never collide with a real multiply's key).
func chainRowCap[T sparse.Number](
	ctx context.Context, cfg Config, pw int, m2, c *sparse.CSR[T], scope *obs.RunScope,
) (exec.Plan, error) {
	build := func() (exec.Plan, error) {
		defer scope.Span(obs.PhasePlanRowCap)()
		if cfg.Iteration == Vanilla {
			return exec.Plan{RowCap: int64(c.Cols)}, nil
		}
		return maskRows(ctx, m2, pw)
	}
	if cfg.Engine == nil {
		return build()
	}
	return cfg.Engine.Plan(exec.PlanKey{
		M:       exec.IDOf(m2),
		A:       exec.IDOf(c),
		Tiles:   cfg.Tiles,
		Tiling:  cfg.Tiling,
		Vanilla: cfg.Iteration == Vanilla,
	}, build)
}

// FusedMaskedSpGEMM computes the chained masked product
//
//	D = M2 ⊙ ((M1 ⊙ (A×B)) × C)
//
// without materializing the intermediate I = M1 ⊙ (A×B) as a CSR: each
// tile's intermediate rows live only in workspace staging buffers and
// are consumed by the second multiply while hot. Rows whose M2 row is
// empty skip stage 1 entirely — their intermediate row is dead by
// construction. The tile partition is FLOP-balanced over the first
// product; both stages share it because the second product's row i
// consumes only intermediate row i.
//
// Shape requirements: A is m×k, B is k×n, M1 is m×n, C is n×q, M2 is
// m×q. The result is bit-identical to the two-call sequence
// MaskedSpGEMM(sr, M1, A, B) then MaskedSpGEMM(sr, M2, I, C) under the
// same Config.
func FusedMaskedSpGEMM[T sparse.Number, S semiring.Semiring[T]](
	sr S, m1, a, b, m2, c *sparse.CSR[T], cfg Config,
) (*sparse.CSR[T], error) {
	p := newProduct(sr, m1, a, b, cfg)
	p.m2, p.c = m2, c
	p.marker = obs.FusedCounters{ChainRuns: 1}
	return p.run(cfg.Context)
}

// chainSink feeds each intermediate row to the chain's second product:
// the row sink of FusedMaskedSpGEMM. One per worker, pointed at the
// worker's current output tile by runTileFused.
type chainSink[T sparse.Number, S semiring.Semiring[T]] struct {
	// k is the second product M2 ⊙ (· × C); its left operand is the
	// intermediate row the sink receives.
	k   kernel[T, S]
	acc accum.Accumulator[T]
	// out stages the current tile of the final output, whose first row is
	// lo; staged records the tile's mode for the fused counters.
	out    *exec.TileBuf[T]
	lo     int
	staged bool
	wc     *obs.WorkerCounters
}

func newChainSinks[T sparse.Number, S semiring.Semiring[T]](
	p *product[T, S], accs []accum.Accumulator[T],
) []chainSink[T, S] {
	sinks := make([]chainSink[T, S], len(accs))
	for w := range sinks {
		sinks[w].k = kernel[T, S]{sr: p.sr, m: p.m2, b: p.c, iter: p.cfg.Iteration, kappa: p.cfg.Kappa}
		sinks[w].acc = accs[w]
	}
	return sinks
}

//spgemm:hotpath
func (s *chainSink[T, S]) row(i int, mid *exec.TileBuf[T], from int) {
	s.feed(i, mid.Cols[from:], mid.Vals[from:])
}

// feed multiplies intermediate row i (as slices — it never became a
// CSR) against C under M2's row i, gathering into the output tile.
//
//spgemm:hotpath
func (s *chainSink[T, S]) feed(i int, iCols []sparse.Index, iVals []T) {
	before := len(s.out.Cols)
	rowStep(&s.k, s.acc, iCols, iVals, s.k.m.RowCols(i), s.out, s.wc)
	s.out.RowNNZ[i-s.lo] = int32(len(s.out.Cols) - before)
}

func (s *chainSink[T, S]) account(fc *obs.FusedCounters, gathered, _ int64) {
	if s.staged {
		fc.StagedTiles++
	} else {
		fc.StreamedTiles++
	}
	fc.MidEntries += gathered
	fc.MidBytes += gathered * fusedEntrySize[T]()
}

// runTileFused executes both stages of the chain for one tile: the tile
// loop over the first product, its rows fed to the worker's chain sink.
// Staged mode (intermediate footprint within budget) computes every
// stage-1 row of the tile into mid, then consumes them in order;
// streamed mode hands the sink each row as it is gathered, keeping only
// one intermediate row live. mid is a per-worker buffer reused across
// the worker's tiles, so its capacity settles at the high-water mark and
// warm runs allocate nothing. It returns the intermediate entries
// produced and the output entries staged.
//
//spgemm:hotpath
func runTileFused[T sparse.Number, S semiring.Semiring[T]](
	k kernel[T, S], sink *chainSink[T, S], acc accum.Accumulator[T], tile tiling.Tile,
	mid, out *exec.TileBuf[T], budget int64, wc *obs.WorkerCounters,
) (midEntries, kept int64) {
	m2 := sink.k.m
	stage(out, tile.Rows(), m2.RowPtr[tile.Hi]-m2.RowPtr[tile.Lo])
	mask1Vol := k.m.RowPtr[tile.Hi] - k.m.RowPtr[tile.Lo]
	sink.out, sink.lo, sink.wc = out, tile.Lo, wc
	sink.staged = mask1Vol*fusedEntrySize[T]() <= budget
	if !sink.staged {
		midEntries, _ = runTile(k, acc, nil, tile, mid, true, sink, wc)
		return midEntries, int64(len(out.Cols))
	}
	// Stage 1, whole tile: the intermediate rows land back-to-back in
	// mid, offsets recovered from mid.RowNNZ. Stage 2 then consumes the
	// still-hot staged rows.
	midEntries, _ = runTile(k, acc, nil, tile, mid, false, nil, wc)
	off := 0
	for r, n := range mid.RowNNZ {
		end := off + int(n)
		sink.feed(tile.Lo+r, mid.Cols[off:end], mid.Vals[off:end])
		off = end
	}
	return midEntries, int64(len(out.Cols))
}

// MaskedSpGEMMSelect computes C = select(M ⊙ (A × B)): the masked
// product with a per-entry keep/rewrite decision fused into the tile
// gather, so entries the selector drops are never assembled. sel maps a
// computed value to its stored replacement and whether to keep the
// entry; it must be pure (it may run concurrently from worker
// goroutines and its call order is unspecified).
//
// This is the k-truss round A ⊙ (A×A) → threshold in one pass: the
// support matrix never exists, only the surviving (rewritten) entries
// reach the output CSR.
func MaskedSpGEMMSelect[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config, sel func(T) (T, bool),
) (*sparse.CSR[T], error) {
	return MaskedSpGEMMSelectInto(sr, nil, m, a, b, cfg, sel)
}

// MaskedSpGEMMSelectInto is MaskedSpGEMMSelect assembling the surviving
// entries into dst's storage, on MaskedSpGEMMInto's terms: overwritten,
// grown only when too small, returned; nil allocates; storage shared
// with m, a or b is ErrConfig.
func MaskedSpGEMMSelectInto[T sparse.Number, S semiring.Semiring[T]](
	sr S, dst, m, a, b *sparse.CSR[T], cfg Config, sel func(T) (T, bool),
) (*sparse.CSR[T], error) {
	if sel == nil {
		return nil, errConfig("select fusion needs a non-nil selector")
	}
	p := newProduct(sr, m, a, b, cfg)
	p.dst = dst
	p.sink = selectSink[T](sel)
	p.marker = obs.FusedCounters{SelectRuns: 1}
	return p.run(cfg.Context)
}

// selectSink compacts each freshly gathered row in place through the
// selector, before the entries ever leave the staging buffer.
type selectSink[T sparse.Number] func(T) (T, bool)

//spgemm:hotpath
func (sel selectSink[T]) row(_ int, buf *exec.TileBuf[T], from int) {
	w := from
	for p := from; p < len(buf.Cols); p++ {
		if v, ok := sel(buf.Vals[p]); ok {
			buf.Cols[w] = buf.Cols[p]
			buf.Vals[w] = v
			w++
		}
	}
	buf.Cols = buf.Cols[:w]
	buf.Vals = buf.Vals[:w]
}

func (selectSink[T]) account(fc *obs.FusedCounters, gathered, kept int64) {
	fc.SelectKept += kept
	fc.SelectDropped += gathered - kept
}

// MaskedSpGEMMStream computes M ⊙ (A × B) row by row and hands each
// nonempty row to sink instead of assembling a CSR — the terminal
// multiply of a chain whose consumer wants rows, not a matrix (the BC
// backward sweep folds each row straight into its dependency vector).
//
// sink is called once per output row that holds at least one entry,
// with the row index and the row's sorted column/value slices. The
// slices are workspace-owned and valid only for the duration of the
// call. Calls come from worker goroutines concurrently, but rows are
// disjoint: no row index is delivered twice, so a sink that writes only
// row-i-owned state needs no locking.
func MaskedSpGEMMStream[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
	sink func(i int, cols []sparse.Index, vals []T),
) error {
	if sink == nil {
		return errConfig("stream fusion needs a non-nil sink")
	}
	p := newProduct(sr, m, a, b, cfg)
	p.sink, p.stream = streamSink[T](sink), true
	p.marker = obs.FusedCounters{StreamRuns: 1}
	_, err := p.run(cfg.Context)
	return err
}

// streamSink delivers each nonempty row to the caller's function as soon
// as it is gathered.
type streamSink[T sparse.Number] func(i int, cols []sparse.Index, vals []T)

//spgemm:hotpath
func (fn streamSink[T]) row(i int, buf *exec.TileBuf[T], from int) {
	if len(buf.Cols) > from {
		fn(i, buf.Cols[from:], buf.Vals[from:])
	}
}

func (streamSink[T]) account(fc *obs.FusedCounters, _, kept int64) {
	fc.MidEntries += kept
	fc.MidBytes += kept * fusedEntrySize[T]()
}
