package core

import (
	"fmt"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// MaskedSpGEMMDot is the inner-product (dot) formulation of the masked
// SpGEMM: instead of traversing the multiplication row-wise (saxpy) and
// filtering against the mask, it iterates the mask's stored entries
// directly and computes each surviving output as a sparse dot product
//
//	C[i,j] = A[i,:] · B[:,j]   for every M[i,j] ≠ 0.
//
// This is the "higher-level algorithm beyond row-wise saxpy" direction
// of Milaković et al. that the paper's related-work section cites: the
// mask makes the output structure known up front, so work is exactly
// proportional to nnz(M) dot products, with no accumulator at all. It
// wins when the mask is much sparser than the product (the circuit5M
// regime) and loses when A rows are revisited many times per row of C.
//
// bT must be the transpose of B in CSR form (i.e. B in CSC); callers
// doing C = A ⊙ (A×A) on a symmetric A can pass A itself.
func MaskedSpGEMMDot[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, bT *sparse.CSR[T], cfg Config,
) (*sparse.CSR[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.Rows != a.Rows || bT.Cols != a.Cols || m.Cols != bT.Rows {
		return nil, fmt.Errorf("%w: M %dx%d, A %dx%d, Bᵀ %dx%d",
			sparse.ErrShape, m.Rows, m.Cols, a.Rows, a.Cols, bT.Rows, bT.Cols)
	}
	if m.Rows == 0 {
		return sparse.NewCSR[T](m.Rows, m.Cols, 0), nil
	}

	// Eq. 2 does not model the dot traversal; its analogue is the merge
	// cost of each surviving dot product:
	//   W[i] = Σ_{M[i,j]≠0} (nnz(A[i,:]) + nnz(B[:,j])).
	ctx := cfg.Context
	pw := sched.Workers(cfg.Workers)
	scope := cfg.Recorder.StartRun()
	defer scope.End()
	poolPrior := cfg.Engine.Stats()
	var tiles []tiling.Tile
	if cfg.Tiling == tiling.FlopBalanced {
		work := make([]int64, m.Rows)
		if err := sched.BlocksE(ctx, blockWorkers(pw, m.Rows), m.Rows, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				na := a.RowNNZ(i)
				var wi int64
				for _, j := range m.RowCols(i) {
					wi += na + bT.RowNNZ(int(j))
				}
				work[i] = wi
			}
		}); err != nil {
			return nil, wrapRunErr(err)
		}
		var err error
		tiles, err = tiling.BalancedTilesParallelE(ctx, work, cfg.Tiles, pw)
		if err != nil {
			return nil, wrapRunErr(err)
		}
	} else {
		tiles = tiling.UniformTiles(m.Rows, cfg.Tiles)
	}
	workers := sched.Workers(cfg.Workers)
	// The dot traversal needs no accumulator or dense scratch — only the
	// per-tile staging buffers — so it checks out a zero-worker workspace.
	ws := exec.Dense[T, S](cfg.Engine, sr, 1, 0, len(tiles))
	// Poison-on-error: the dot workspace is staging-only, but a failed
	// run can still leave per-tile buffers mid-write; quarantine unless
	// fully successful.
	clean := false
	defer func() {
		if !clean {
			ws.Poison()
		}
		ws.Release()
	}()
	outs := ws.Outs[:len(tiles)]

	if err := schedRun(ctx, cfg, workers, len(tiles), func(_, t int) {
		tile := tiles[t]
		out := &outs[t]
		stage(out, tile.Rows(), m.RowPtr[tile.Hi]-m.RowPtr[tile.Lo])
		for i := tile.Lo; i < tile.Hi; i++ {
			aCols, aVals := a.Row(i)
			before := len(out.Cols)
			for _, j := range m.RowCols(i) {
				bCols, bVals := bT.Row(int(j))
				if v, hit := sparseDot(sr, aCols, aVals, bCols, bVals); hit {
					out.Cols = append(out.Cols, j)
					out.Vals = append(out.Vals, v)
				}
			}
			out.RowNNZ[i-tile.Lo] = int32(len(out.Cols) - before)
		}
	}); err != nil {
		return nil, wrapRunErr(err)
	}

	c, err := assembleE(ctx, m.Rows, m.Cols, tiles, outs, pw)
	if err != nil {
		return nil, wrapRunErr(err)
	}
	recordPoolDelta(cfg, poolPrior, scope)
	clean = true
	return c, nil
}

// sparseDot merges two sorted index lists and accumulates the products
// of coinciding entries. hit reports whether any index matched (an
// all-miss dot yields no stored entry, matching the saxpy kernels'
// structural semantics).
//
//spgemm:hotpath
func sparseDot[T sparse.Number, S semiring.Semiring[T]](
	sr S, aCols []sparse.Index, aVals []T, bCols []sparse.Index, bVals []T,
) (T, bool) {
	var acc T
	hit := false
	p, q := 0, 0
	for p < len(aCols) && q < len(bCols) {
		switch {
		case aCols[p] < bCols[q]:
			p++
		case aCols[p] > bCols[q]:
			q++
		default:
			x := sr.Times(aVals[p], bVals[q])
			if hit {
				acc = sr.Plus(acc, x)
			} else {
				acc = x
				hit = true
			}
			p++
			q++
		}
	}
	return acc, hit
}
