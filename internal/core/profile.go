package core

import (
	"fmt"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/sparse"
)

// Profile is a symbolic execution of the masked SpGEMM: it traverses the
// operand structure without doing arithmetic and reports the quantities
// the paper's cost models are built from. It validates Eq. 2 (the
// FLOP-balanced tiling estimator) and Eq. 3 (the co-iteration switch)
// against the actual traversal, and it feeds the model-based tuner.
type Profile struct {
	// Rows is the number of output rows.
	Rows int
	// MaskNNZ is nnz(M); output nonzeros are bounded by it.
	MaskNNZ int64
	// MaxMaskRow is max_i nnz(M[i,:]) — the accumulator sizing bound.
	MaxMaskRow int64
	// MaskSpans profiles the mask rows' column spans — the dense window's
	// sizing quantity (DeriveAccumulator).
	MaskSpans accum.Spans
	// Flops is Σ_{A[i,k]≠0} nnz(B[k,:]) — the updates the vanilla and
	// mask-load spaces perform.
	Flops int64
	// MaxRowFlops is the largest per-row flop count — the vanilla
	// accumulator sizing bound.
	MaxRowFlops int64
	// Eq2Work is Σ_i W[i] with W per Eq. 2 (MaskNNZ + Flops).
	Eq2Work int64
	// CoIterPairs and LinearPairs count the hybrid kernel's per-(i,k)
	// decisions at the profile's κ.
	CoIterPairs, LinearPairs int64
	// CoIterProbeCost is the modeled cost of the chosen co-iterations:
	// Σ nnz(M[i,:])·⌈log2 nnz(B[k,:])⌉ over co-iterated pairs.
	CoIterProbeCost int64
	// LinearScanCost is Σ nnz(B[k,:]) over linearly scanned pairs.
	LinearScanCost int64
	// HybridCost is CoIterProbeCost + LinearScanCost: the modeled cost
	// of the hybrid traversal. Flops is the corresponding cost without
	// co-iteration; their ratio predicts Fig. 14's speedup.
	HybridCost int64
	// Kappa is the co-iteration factor the decisions were taken at.
	Kappa float64
}

// ProfileMasked symbolically executes C = M ⊙ (A × B) and returns the
// cost-model quantities at co-iteration factor kappa.
func ProfileMasked[T sparse.Number](m, a, b *sparse.CSR[T], kappa float64) (Profile, error) {
	if err := checkShapes(m, a, b); err != nil {
		return Profile{}, err
	}
	p := Profile{Rows: a.Rows, MaskNNZ: m.NNZ(), Kappa: kappa}
	for i := 0; i < a.Rows; i++ {
		nnzM := int(m.RowNNZ(i))
		if int64(nnzM) > p.MaxMaskRow {
			p.MaxMaskRow = int64(nnzM)
		}
		if cols := m.RowCols(i); nnzM > 0 {
			p.MaskSpans.Add(int64(cols[nnzM-1]-cols[0])+1, int64(nnzM))
		}
		var rowFlops int64
		for _, k := range a.RowCols(i) {
			nnzB := int(b.RowNNZ(int(k)))
			rowFlops += int64(nnzB)
			if nnzM > 0 && coIterCheaper(nnzM, nnzB, kappa) {
				p.CoIterPairs++
				p.CoIterProbeCost += int64(nnzM * log2ceil(nnzB))
			} else {
				p.LinearPairs++
				p.LinearScanCost += int64(nnzB)
			}
		}
		p.Flops += rowFlops
		if rowFlops > p.MaxRowFlops {
			p.MaxRowFlops = rowFlops
		}
	}
	p.Eq2Work = p.MaskNNZ + p.Flops
	p.HybridCost = p.CoIterProbeCost + p.LinearScanCost
	return p, nil
}

// PredictedCoIterSpeedup is the cost model's prediction of how much the
// hybrid traversal saves over pure linear scanning (>1 = co-iteration
// should win). Fig. 14's measured curves should follow this ratio's
// trend across graphs.
func (p Profile) PredictedCoIterSpeedup() float64 {
	if p.HybridCost == 0 {
		return 1
	}
	return float64(p.Flops) / float64(p.HybridCost)
}

// CoIterFraction is the share of (i,k) pairs the hybrid kernel
// co-iterates at the profile's κ.
func (p Profile) CoIterFraction() float64 {
	total := p.CoIterPairs + p.LinearPairs
	if total == 0 {
		return 0
	}
	return float64(p.CoIterPairs) / float64(total)
}

// String renders the profile on one line for experiment logs.
func (p Profile) String() string {
	return fmt.Sprintf(
		"rows=%d masknnz=%d flops=%d eq2=%d coiter=%.1f%% predicted-speedup=%.2fx",
		p.Rows, p.MaskNNZ, p.Flops, p.Eq2Work, 100*p.CoIterFraction(), p.PredictedCoIterSpeedup())
}
