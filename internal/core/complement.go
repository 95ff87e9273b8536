package core

import (
	"slices"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// MaskedSpGEMMComp computes C = ¬M ⊙ (A × B): the product restricted to
// positions where the mask stores NO entry — GraphBLAS's complemented
// structural mask (GrB_COMP). BFS-style algorithms use it to exclude
// already-visited vertices.
//
// Complement masks invert the study's key property: the output is no
// longer bounded by nnz(M), so the mask cannot pre-size or pre-populate
// the accumulator and only the vanilla-style traversal applies — each
// row's full product is formed and mask hits are discarded. The
// accumulator here is a per-worker dense scratch with an explicit
// touched list, sized by the column dimension, checked out of the
// engine's pool (cfg.Engine) or constructed per call without one. The
// run itself is the shared protocol's (run.go), so a complement run is
// planned, guarded, spanned and counted like every other.
//
// dst lends the result its storage exactly as in MaskedSpGEMMInto: it
// is overwritten, grown only when too small, and returned; nil
// allocates. A caller that knows a bound on its results (batched BC's
// forward fronts) assembles each one straight into a free tail of its
// own storage.
func MaskedSpGEMMComp[T sparse.Number, S semiring.Semiring[T]](
	sr S, dst, m, a, b *sparse.CSR[T], cfg Config,
) (*sparse.CSR[T], error) {
	p := newProduct(sr, m, a, b, cfg)
	p.comp, p.dst = true, dst
	return p.run(cfg.Context)
}

// rowComp computes one row of the complement-masked product onto buf.
// The per-worker scratch's state vector encodes 0 empty, 1 blocked by
// mask, 2 written; the touched list records the written columns and,
// with the mask row, drives the explicit reset, which restores the
// all-zero state the (pooled) scratch must be returned in. A row whose
// mask row is full has no ¬M position to write and is skipped — the
// mirror image of rowStep's empty-mask rule — so its Eq. 2 FLOPs are
// neither performed nor recorded.
//
//spgemm:hotpath
func rowComp[T sparse.Number, S semiring.Semiring[T]](
	k *kernel[T, S], sc *exec.DenseScratch[T], aCols []sparse.Index, aVals []T,
	maskCols []sparse.Index, buf *exec.TileBuf[T], wc *obs.WorkerCounters,
) {
	if len(maskCols) == k.b.Cols {
		return
	}
	// Block the masked positions, then accumulate the row product into
	// everything else.
	for _, j := range maskCols {
		sc.State[j] = 1
	}
	var flops int64
	for kk, ak := range aCols {
		aik := aVals[kk]
		bCols, bVals := k.b.Row(int(ak))
		flops += int64(len(bCols))
		for jj, j := range bCols {
			switch sc.State[j] {
			case 2:
				sc.Vals[j] = k.sr.Plus(sc.Vals[j], k.sr.Times(aik, bVals[jj]))
			case 0:
				sc.State[j] = 2
				sc.Vals[j] = k.sr.Times(aik, bVals[jj])
				sc.Touched = append(sc.Touched, j)
			} // state 1: blocked by the mask, discard
		}
	}
	if wc != nil {
		wc.Flops.Add(flops)
	}
	// Gather the written entries in column order, then reset.
	slices.Sort(sc.Touched)
	for _, j := range sc.Touched {
		buf.Cols = append(buf.Cols, j)
		buf.Vals = append(buf.Vals, sc.Vals[j])
		sc.State[j] = 0
	}
	sc.Touched = sc.Touched[:0]
	for _, j := range maskCols {
		sc.State[j] = 0
	}
}
