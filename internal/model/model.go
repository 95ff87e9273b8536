// Package model implements the execution-time configuration predictor
// the paper's conclusion calls for: "build models which can
// intelligently tune the parameters at execution time, rather than
// offline for the average case." The model extracts cheap structural
// features from the operands (one O(nnz) pass — the same pass the
// FLOP-balanced tiler already needs) and maps them to a kernel
// configuration with decision rules distilled from the paper's
// experimental findings (§V).
package model

import (
	"fmt"
	"unsafe"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// Features are the structural quantities the predictor decides on. All
// are computable in one pass over the operand structure.
type Features struct {
	// Rows and Cols are the output dimensions.
	Rows, Cols int
	// ValueBytes is the size of one matrix value.
	ValueBytes int
	// MaskNNZ, Flops, MaxMaskRow, MaxRowFlops come from the symbolic
	// profile (Eqs. 2–3 quantities).
	MaskNNZ, Flops          int64
	MaxMaskRow, MaxRowFlops int64
	// MaskSpans profiles the mask rows' column spans, which size the
	// dense window (core.DeriveAccumulator).
	MaskSpans accum.Spans
	// DegreeSkew is max row nnz of A over the average — near 1 for road
	// networks, large for social/web hubs.
	DegreeSkew float64
	// MaskDensity is MaskNNZ / (Rows·Cols).
	MaskDensity float64
	// CoIterSpeedup is the Eq. 3 model's predicted gain of the hybrid
	// traversal over pure linear scanning at κ=1.
	CoIterSpeedup float64
	// AvgFlopsPerUpdatePos is Flops / MaskNNZ: how many candidate
	// updates compete for each potential output — high values mean the
	// mask is much sparser than the products (the circuit5M signature).
	AvgFlopsPerUpdatePos float64
}

// Extract computes the features of C = M ⊙ (A × B).
func Extract[T sparse.Number](m, a, b *sparse.CSR[T]) (Features, error) {
	p, err := core.ProfileMasked(m, a, b, 1)
	if err != nil {
		return Features{}, err
	}
	var zero T
	f := Features{
		Rows: m.Rows, Cols: m.Cols, ValueBytes: int(unsafe.Sizeof(zero)),
		MaskNNZ: p.MaskNNZ, Flops: p.Flops,
		MaxMaskRow: p.MaxMaskRow, MaxRowFlops: p.MaxRowFlops, MaskSpans: p.MaskSpans,
		CoIterSpeedup: p.PredictedCoIterSpeedup(),
	}
	var maxA int64
	for i := 0; i < a.Rows; i++ {
		if n := a.RowNNZ(i); n > maxA {
			maxA = n
		}
	}
	if a.Rows > 0 && a.NNZ() > 0 {
		f.DegreeSkew = float64(maxA) * float64(a.Rows) / float64(a.NNZ())
	} else {
		f.DegreeSkew = 1
	}
	if m.Rows > 0 && m.Cols > 0 {
		f.MaskDensity = float64(p.MaskNNZ) / (float64(m.Rows) * float64(m.Cols))
	}
	if p.MaskNNZ > 0 {
		f.AvgFlopsPerUpdatePos = float64(p.Flops) / float64(p.MaskNNZ)
	}
	return f, nil
}

// The predictor's decision boundaries, encoding §V: balanced+dynamic
// with ~2048 tiles works for 80–90% of matrices; co-iteration helps when
// the model predicts ≥ 15% gain; 32-bit markers are the sweet spot. The
// accumulator is left to the planner, whose derivation
// (core.DeriveAccumulator) PredictAccumulator reproduces from the features.
const (
	// coIterGain is the minimum predicted speedup before the hybrid space
	// is worth its per-pair decision overhead.
	coIterGain = 1.15
	// rowsPerTile is the target granularity: tiles ≈ rows/rowsPerTile,
	// clamped to [minTiles, maxTiles].
	rowsPerTile = 16
	minTiles    = 64
	maxTiles    = 2048
)

// Predict maps features to a kernel configuration.
func Predict(f Features, workers int) core.Config {
	cfg := core.Config{
		Kappa:      1,
		MarkerBits: 32, // Fig. 13 sweet spot
		Tiling:     tiling.FlopBalanced,
		Schedule:   sched.Dynamic,
		Workers:    workers,
	}

	// Iteration space: hybrid only if the Eq. 3 model predicts real
	// savings; otherwise the plain mask-load scan avoids per-pair
	// decision overhead.
	if f.CoIterSpeedup >= coIterGain {
		cfg.Iteration = core.Hybrid
	} else {
		cfg.Iteration = core.MaskLoad
	}

	// Accumulator: the planner derives it per product, window included
	// (PredictAccumulator is its verdict on f); forcing a kind would
	// forgo the window.
	cfg.Accumulator = accum.AutoKind

	// Tile count: enough tiles for dynamic balancing, not so many that
	// per-tile overhead dominates (Fig. 11's high-tile-count collapse).
	cfg.Tiles = min(max(f.Rows/rowsPerTile, minTiles), maxTiles)
	return cfg
}

// PredictAccumulator is the accumulator the planner derives for a
// masked product with features f in a space that loads the mask:
// core.DeriveAccumulator on the output columns, the mask-row maximum
// (the row capacity a non-vanilla plan sizes) and the mask spans.
func PredictAccumulator(f Features, markerBits int) core.AccumLayout {
	return core.DeriveAccumulator(f.Cols, f.MaxMaskRow, f.MaskSpans, f.ValueBytes, markerBits)
}

// PredictConfig extracts features and predicts in one call — the
// "execution time" entry point (cost: one structural pass, ~the same
// as the FLOP-balanced tiler itself).
func PredictConfig[T sparse.Number](m, a, b *sparse.CSR[T], workers int) (core.Config, Features, error) {
	f, err := Extract(m, a, b)
	if err != nil {
		return core.Config{}, Features{}, err
	}
	cfg := Predict(f, workers)
	if err := cfg.Validate(); err != nil {
		return core.Config{}, Features{}, fmt.Errorf("model: predicted invalid config: %w", err)
	}
	return cfg, f, nil
}
