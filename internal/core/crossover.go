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

// AccumLayout is the planner's accumulator for one product: the
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

// accumulatorFor resolves the run's accumulator for a product with
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
		return AccumLayout{}, WrapRunErr(err)
	}
	return accumulatorFor[T](cfg, b.Cols, plan), nil
}

// UntiledWork measures what one untiled serial pass of M ⊙ (A × B)
// would touch,
//
//	W = rows(A) + nnz(M) + nnz(A) + Σ_{A[i,k]≠0} nnz(B[k,:])
//
// which is Eq. 2 plus the row and A-entry visits Eq. 2 leaves out — the
// terms that dominate when B is hypersparse (a batched frontier). The
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
// "below" (a tall-and-skinny B: a batched frontier), no B row is looked
// up; the verdict is the exact scan's either way.
func belowTileCrossover[T sparse.Number](m, a, b *sparse.CSR[T]) bool {
	return workBound(m, a, b, tileCrossover) < tileCrossover ||
		UntiledWork(m, a, b, tileCrossover) < tileCrossover
}

// ViewCosts are the lower view's unit costs, in ns: the accumulator
// path's per live row, per entry of L, per entry served from a hash
// table and per Eq. 2 FLOP; the merge kernel's per pair (i, j) and per
// merge step. The values are internal/model.DerivedViewCosts (a test
// there fails when the two drift).
type ViewCosts struct{ Row, Entry, Hashed, Flop, Pair, Step float64 }

var viewCosts = ViewCosts{Row: 6.5, Entry: 14, Hashed: 89, Flop: 3, Pair: 10, Step: 3.8}

// ViewCostsOf returns the unit costs the lower view is priced with.
func ViewCostsOf() ViewCosts { return viewCosts }

// ViewWork is the lower view's work on a symmetric a. With d_i and u_i
// row i's entries below and above the diagonal, L has Rows rows with
// d_i > 0 and Entries = Σ d_i, Hashed of them in rows served from a hash
// table; the accumulator path scatters Flops = Σ d_i·u_i (L's row i is
// read once per entry above the diagonal); the merge kernel's pair
// (i, j) merges the s entries of row i and the r of row j in (j, i) in
// min(s + r, short·log2(long)) Steps.
type ViewWork struct{ Rows, Entries, Hashed, Flops, Steps int64 }

// CountViewWork counts a's lower-view work under accumulator l, in
// O(nnz) time and one counter per row.
func CountViewWork[T sparse.Number](a *sparse.CSR[T], l AccumLayout) (w ViewWork) {
	hash := l.Kind == accum.HashKind || l.Kind == accum.HashExplicitKind
	// seen[j] counts the rows i < the current one holding j < i: row j's
	// entries in (j, i), a being symmetric.
	seen := make([]int32, a.Rows)
	for i := range a.Rows {
		cols := a.RowCols(i)
		d := below(cols, sparse.Index(i))
		if d == 0 {
			continue
		}
		w.Rows++
		w.Entries += int64(d)
		if hash || l.Window > 0 && int(cols[d-1]-cols[0]) >= l.Window {
			w.Hashed += int64(d)
		}
		w.Flops += int64(d * (len(cols) - below(cols, sparse.Index(i)+1)))
		for p, j := range cols[:d] {
			s, r := int64(d-1-p), int64(seen[j])
			seen[j]++
			w.Steps += min(s+r, min(s, r)*int64(bits.Len64(uint64(max(s, r)))))
		}
	}
	return w
}

// PriceView is the verdict of a's lower view under accumulator l (the
// planner's, AccumulatorOf): each kernel's predicted time on a's counted
// work, and whether the merge kernel's is the smaller.
func PriceView[T sparse.Number](a *sparse.CSR[T], l AccumLayout) (merge bool, accNs, mergeNs float64) {
	w, c := CountViewWork(a, l), viewCosts
	accNs = c.Row*float64(w.Rows) + c.Entry*float64(w.Entries) + c.Hashed*float64(w.Hashed) + c.Flop*float64(w.Flops)
	mergeNs = c.Pair*float64(w.Entries) + c.Step*float64(w.Steps)
	return mergeNs < accNs, accNs, mergeNs
}
