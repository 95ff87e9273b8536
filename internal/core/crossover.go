package core

import "maskedspgemm/internal/sparse"

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

// belowTileCrossover is the planner's decision: whether the product's
// untiled work stays under the crossover. A chain adds its second
// product; the intermediate is never materialised, but it lies inside
// M's pattern, so M stands in for it as the left operand — an upper
// bound on what the second stage can touch.
func belowTileCrossover[T sparse.Number](m, a, b, m2, c *sparse.CSR[T]) bool {
	w := UntiledWork(m, a, b, tileCrossover)
	if c != nil && w < tileCrossover {
		w += UntiledWork(m2, m, c, tileCrossover-w)
	}
	return w < tileCrossover
}
