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
	"maskedspgemm/internal/exec"
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

// DefaultRetentionBudget bounds the memory the engine may pin in idle
// workspaces: beyond it, retention stops paying for itself against the
// cache pressure the idle buffers add.
const DefaultRetentionBudget = 256 << 20 // 256 MiB

// PredictEngine sizes an exec.Engine's retention bounds from the
// problem's features under the default retention budget; see
// PredictEngineBudget.
func PredictEngine(f Features, cfg core.Config, workers int) exec.Config {
	return PredictEngineBudget(f, cfg, workers, DefaultRetentionBudget)
}

// PredictEngineBudget sizes an exec.Engine's retention bounds from the
// problem's features and an explicit retention budget in bytes
// (budget <= 0 selects DefaultRetentionBudget), for the accumulator
// that will run: cfg's kind, or the planner's derivation when cfg
// leaves it to the planner. The dominant per-workspace cost is the
// accumulator state, priced by the planner's own rule
// (core.AccumLayout.StateBytes, accum.StateBytes at f.ValueBytes and
// cfg.MarkerBits): a dense accumulator holds a value and a marker per
// column of its window (every column at full width) and its spill
// table, a hash accumulator the HashCapacity(MaxMaskRow)-slot table,
// per worker. The idle cap is
// the retention budget divided by that footprint, so small problems
// keep the default (deep) pool while problems with huge columns retain
// only a few idle workspaces. The plan cache is footprint-light (tile boundaries only)
// and stays at its default depth.
func PredictEngineBudget(f Features, cfg core.Config, workers int, budget int64) exec.Config {
	if workers <= 0 {
		workers = sched.Workers(workers)
	}
	if budget <= 0 {
		budget = DefaultRetentionBudget
	}
	l := core.AccumLayout{Kind: cfg.Accumulator, RowCap: f.MaxMaskRow}
	switch cfg.Accumulator {
	case accum.AutoKind:
		l = PredictAccumulator(f, cfg.MarkerBits)
	case accum.DenseKind, accum.DenseExplicitKind:
		l = core.AccumLayout{Kind: accum.DenseKind} // per-column state, priced as dense
	}
	perWorker := l.StateBytes(f.Cols, f.ValueBytes, cfg.MarkerBits)
	// Tile staging holds at most the mask volume across all tiles.
	footprint := perWorker*int64(workers) + f.MaskNNZ*12
	if footprint <= 0 {
		footprint = 1
	}
	maxIdle := int(budget / footprint)
	if maxIdle > exec.DefaultMaxIdle {
		maxIdle = exec.DefaultMaxIdle
	}
	if maxIdle < 2 {
		maxIdle = 2 // always keep the warm-loop pair
	}
	return exec.Config{MaxIdle: maxIdle, MaxPlans: exec.DefaultMaxPlans}
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
