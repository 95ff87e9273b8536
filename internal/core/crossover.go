package core

import (
	"fmt"
	"math/bits"
	"unsafe"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
)

// tileCrossover is the untiled-work measure (see UntiledWork) below
// which planFor answers the paper's title question with "not to tile":
// one tile, hence one worker, hence no Eq. 2 plan, no plan-cache
// traffic, no goroutine and no tile claims. Tiling a product costs a
// fixed amount — Eq. 2 row work and a prefix sum over the rows, a
// boundary search and an atomic claim per tile, a plan-cache store, a
// worker launch — that parallelism can only win back in proportion to
// the work it splits; below this much work it cannot. The value is
// internal/model.TileCrossover evaluated on the reference host's ledger
// (a test there fails when the two drift); docs/TUNING.md has the
// regime and `spgemm-bench -experiment crossover` regenerates it. A
// variable so tests can pin either side; not a knob.
var tileCrossover int64 = 1 << 17

// TileCrossover returns the untiled-work measure below which a product
// runs as one tile on the caller's goroutine.
func TileCrossover() int64 { return tileCrossover }

// SetTileCrossoverForTest overrides the tile crossover and returns the
// previous value: 0 forces every product through the tiled path, so
// suites whose fixtures are far below the production value keep
// exercising tiles, claims and multi-worker assembly. Not for
// production use.
func SetTileCrossoverForTest(w int64) (old int64) {
	old = tileCrossover
	tileCrossover = w
	return old
}

// denseStateFactor is how many times the bytes of the hash table it
// replaces the dense accumulator's state may take when the planner
// derives the accumulator (DeriveAccumulator). Dense is faster than
// hash at every column-to-row-capacity ratio measured (0.14–0.54 × its
// time per FLOP); what limits it is the state it holds per worker, and
// the planner spends memory on it at about the slowest measured
// exchange rate. The value is internal/model.DerivedDenseStateFactor
// evaluated on the reference host's accumulator costs (a test there
// fails when the two drift); docs/TUNING.md has the regime.
const denseStateFactor = 2

// windowFloor is the dense state, in bytes, every worker may hold
// whatever the hash table it replaces would take — a window that small
// costs no measurable time — so a product whose hash table is tiny (a
// road graph's) still gets a window as wide as its rows span. The value
// is internal/model.DerivedWindowFloor on the reference host's window
// sweep (a test there fails when the two drift).
const windowFloor = 96 << 10

// DenseStateFactor returns the state factor the planner derives the
// accumulator with.
func DenseStateFactor() int64 { return denseStateFactor }

// WindowFloor returns the per-worker dense state, in bytes, the planner
// allows a window whatever the hash table's size.
func WindowFloor() int64 { return windowFloor }

// AccumLayout is the planner's accumulator for one product stage: the
// kind; a dense window's width (0 at full width and for other kinds);
// the row bound of the hash table it holds — a hash accumulator's own,
// or the one a window's wider rows spill to (0: none).
type AccumLayout struct {
	Kind   accum.Kind
	Window int
	RowCap int64
}

// String names the layout the way docs/TUNING.md tabulates it.
func (l AccumLayout) String() string {
	switch {
	case l.Kind != accum.DenseKind || l.Window == 0:
		return l.Kind.String()
	case l.RowCap > 0:
		return fmt.Sprintf("Window%d+spill", l.Window)
	default:
		return fmt.Sprintf("Window%d", l.Window)
	}
}

// StateBytes is the state one accumulator of the layout holds for
// output rows of cols columns, priced by accum.StateBytes.
func (l AccumLayout) StateBytes(cols, valueBytes, markerBits int) int64 {
	if l.Kind != accum.DenseKind {
		return accum.StateBytes(accum.HashKind, cols, l.RowCap, valueBytes, markerBits)
	}
	if l.Window > 0 {
		cols = l.Window
	}
	b := accum.StateBytes(accum.DenseKind, cols, 0, valueBytes, markerBits)
	if l.RowCap > 0 {
		b += accum.StateBytes(accum.HashKind, cols, l.RowCap, valueBytes, markerBits)
	}
	return b
}

// DeriveAccumulator is the planner's accumulator for output rows of cols
// columns holding at most rowCap entries, whose mask rows span spans,
// with valueBytes-byte values and markerBits-bit markers, in O(1)
// (docs/TUNING.md "Dense or hash"): the window W is the widest span's
// power of two, cut to one inside a dense budget of max(denseStateFactor
// × the hash table's bytes, windowFloor); W ≥ cols is full width; a
// narrower W spills (to a table sized like the hash accumulator's) only
// when some row is wider; and it is hash when the rows W covers hold
// under 1/denseStateFactor of the mask entries.
func DeriveAccumulator(cols int, rowCap int64, spans accum.Spans, valueBytes, markerBits int) AccumLayout {
	hashBytes := accum.StateBytes(accum.HashKind, cols, rowCap, valueBytes, markerBits)
	slot := accum.StateBytes(accum.DenseKind, 1, rowCap, valueBytes, markerBits)
	budget := max(denseStateFactor*hashBytes, windowFloor) / slot
	need := int64(1) << bits.Len64(uint64(max(spans.Max, 1)-1))
	w := min(budget, need)
	if int64(cols) <= w {
		return AccumLayout{Kind: accum.DenseKind}
	}
	w = int64(1) << (bits.Len64(uint64(w)) - 1)
	if covered, total := spans.Within(w); covered*denseStateFactor < total {
		return AccumLayout{Kind: accum.HashKind, RowCap: rowCap}
	}
	l := AccumLayout{Kind: accum.DenseKind, Window: int(w)}
	if spans.Max > w {
		l.RowCap = rowCap
	}
	return l
}

// accumulatorFor resolves the run's accumulator for a product stage with
// cols output columns under plan: the configured kind at full width, or
// the planner's derivation. Spaces that load no mask (Vanilla, CoIter)
// index from column 0, so they derive as if every row spanned all cols:
// full width or hash, never a window.
func accumulatorFor[T sparse.Number](cfg Config, cols int, plan exec.Plan) AccumLayout {
	if cfg.Accumulator != accum.AutoKind {
		l := AccumLayout{Kind: cfg.Accumulator, RowCap: plan.RowCap}
		if l.Kind == accum.DenseKind {
			l.RowCap = 0
		}
		return l
	}
	spans := plan.Spans
	if cfg.Iteration == Vanilla || cfg.Iteration == CoIter {
		spans = accum.Spans{}
		spans.Add(int64(max(cols, 1)), 1)
	}
	var zero T
	return DeriveAccumulator(cols, plan.RowCap, spans, int(unsafe.Sizeof(zero)), cfg.MarkerBits)
}

// AccumulatorOf is the accumulator a run of C = M ⊙ (A × B) under cfg
// checks out, derived from plan facts computed afresh.
func AccumulatorOf[T sparse.Number](m, a, b *sparse.CSR[T], cfg Config) (AccumLayout, error) {
	if err := cfg.Validate(); err != nil {
		return AccumLayout{}, err
	}
	if err := checkShapes(m, a, b); err != nil {
		return AccumLayout{}, err
	}
	plan, err := rowCapacity(cfg.Context, cfg, sched.Workers(cfg.Workers), a, b, m, nil)
	if err != nil {
		return AccumLayout{}, wrapRunErr(err)
	}
	return accumulatorFor[T](cfg, b.Cols, plan), nil
}

// UntiledWork measures what one untiled serial pass of M ⊙ (A × B)
// would touch,
//
//	W = rows(A) + nnz(M) + nnz(A) + Σ_{A[i,k]≠0} nnz(B[k,:])
//
// which is Eq. 2 plus the row and A-entry visits Eq. 2 leaves out — the
// terms that dominate when B is hypersparse (a BFS or BC frontier). The
// scan stops as soon as the running total reaches limit, so the result
// is exact below limit and merely ≥ limit otherwise: deciding against a
// threshold costs O(1) when the first three terms already reach it and
// fewer than limit B-row lookups in any case, and allocates nothing.
// The planner asks the O(1) workBound first (belowTileCrossover).
//
//spgemm:hotpath
func UntiledWork[T sparse.Number](m, a, b *sparse.CSR[T], limit int64) int64 {
	w := int64(a.Rows) + m.NNZ() + a.NNZ()
	if w >= limit {
		return w
	}
	for _, k := range a.ColIdx[:a.NNZ()] {
		w += b.RowNNZ(int(k))
		if w >= limit {
			break
		}
	}
	return w
}

// workBound is the O(1) upper bound W ≤ rows(A) + nnz(M) +
// nnz(A)·(1 + B.Cols) (an A entry selects a B row of at most B.Cols
// entries), or limit when the bound reaches it.
func workBound[T sparse.Number](m, a, b *sparse.CSR[T], limit int64) int64 {
	w, n := int64(a.Rows)+m.NNZ()+a.NNZ(), a.NNZ()
	// The second test is n·B.Cols > limit − w, without forming the product.
	if w >= limit || n > 0 && int64(b.Cols) > (limit-w)/n {
		return limit
	}
	return w + n*int64(b.Cols)
}

// belowTileCrossover is the planner's decision: whether the product's
// untiled work stays under the crossover. When workBound already answers
// "below" (a tall-and-skinny B: a BC or BFS frontier), no B row is looked
// up; the verdict is the exact scan's either way.
func belowTileCrossover[T sparse.Number](m, a, b, m2, c *sparse.CSR[T]) bool {
	return chainWork(workBound[T], m, a, b, m2, c) < tileCrossover ||
		chainWork(UntiledWork[T], m, a, b, m2, c) < tileCrossover
}

// chainWork is measure's work for the product plus a chain's second
// product, in which M stands in for the never-materialised intermediate
// (it lies inside M's pattern: an upper bound on what stage 2 touches).
func chainWork[T sparse.Number](
	measure func(m, a, b *sparse.CSR[T], limit int64) int64, m, a, b, m2, c *sparse.CSR[T],
) int64 {
	w := measure(m, a, b, tileCrossover)
	if c != nil && w < tileCrossover {
		w += measure(m2, m, c, tileCrossover-w)
	}
	return w
}
