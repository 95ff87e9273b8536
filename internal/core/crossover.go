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
