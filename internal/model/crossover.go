package model

import (
	"math"
	"math/bits"
)

// The tile crossover, derived. core.planFor answers "one tile, one
// worker" for a product whose untiled work W (core.UntiledWork) is under
// one constant; this file is where that constant comes from. Everything
// is in the benchmark ledger's units (benchmark/README.md, "Per-layer
// metrics"), so a re-measured ledger re-derives it and the test beside
// this file fails when core's constant and the derivation drift.

// TileCosts are the unit costs the crossover is derived from, one field
// per ledger entry.
type TileCosts struct {
	// RowWorkNsPerRow and PrefixNsPerRow are the Eq. 2 row-work pass and
	// the prefix sum, per row (tiling.rowwork_ns_per_row,
	// tiling.prefix_ns_per_row).
	RowWorkNsPerRow, PrefixNsPerRow float64
	// BuildNsPerTile and ClaimNs are the boundary search and the atomic
	// claim, per tile (tiling.build_ns_per_tile, sched.claim_ns).
	BuildNsPerTile, ClaimNs float64
	// PlanStoreNs is one plan-cache miss-and-store (exec.plan_store_ns);
	// SpawnUs one worker launch and join (sched.spawn_us).
	PlanStoreNs, SpawnUs float64
	// KernelNsPerFlop is the row kernel's time per unit of work
	// (core.kernel_ns_per_flop).
	KernelNsPerFlop float64
}

// ReferenceTileCosts are the medians of the tc-band rows of
// benchmark/reference/run1.json (five seeds on the 2-vCPU reference
// host). tc-band is the ledger's few-FLOPs-per-row workload: the one
// nearest the crossover's regime whose kernel_ns_per_flop is still a
// kernel measurement — on bc-road that entry is fixed cost divided by a
// few hundred FLOPs.
var ReferenceTileCosts = TileCosts{
	RowWorkNsPerRow: 9.52,
	PrefixNsPerRow:  1.31,
	BuildNsPerTile:  43.8,
	ClaimNs:         8.72,
	PlanStoreNs:     1329,
	SpawnUs:         0.951,
	KernelNsPerFlop: 2.87,
}

// Reference shape of the derivation: the paper's default tile count,
// the fewest rows that cut all of them (fewer rows cut fewer tiles and
// the fixed cost shrinks with them), and the reference host's width.
const (
	referenceTiles   = 2048
	referenceRows    = referenceTiles
	referenceWorkers = 2
)

// TiledFixedNs is what tiling a product costs before any row is
// computed, when its plan is not cached: the two O(rows) plan passes,
// the per-tile boundary search and claim, the plan-cache store and the
// worker launch.
func (c TileCosts) TiledFixedNs(rows, tiles int) float64 {
	return (c.RowWorkNsPerRow+c.PrefixNsPerRow)*float64(rows) +
		(c.BuildNsPerTile+c.ClaimNs)*float64(tiles) +
		c.PlanStoreNs + 1e3*c.SpawnUs
}

// TileCrossover is the untiled work W at which tiling a rows-row
// product into tiles tiles on workers workers breaks even: the fixed
// cost above against the kernel time p workers save over one,
// KernelNsPerFlop · W · (1 − 1/p). Below it the one-tile plan is
// faster. One worker never breaks even (+Inf).
func (c TileCosts) TileCrossover(rows, tiles, workers int) float64 {
	if workers <= 1 {
		return math.Inf(1)
	}
	saved := c.KernelNsPerFlop * (1 - 1/float64(workers))
	return c.TiledFixedNs(rows, tiles) / saved
}

// DerivedTileCrossover is the value core's constant must hold: the
// break-even W of the reference costs at the reference shape, rounded
// up to a power of two. Rounding up errs toward not tiling: the
// derivation's fixed cost is a floor (every product with more rows than
// the reference pays more), and a wrongly untiled product loses at most
// the parallel share of under a millisecond of kernel time.
func DerivedTileCrossover() int64 {
	w := ReferenceTileCosts.TileCrossover(referenceRows, referenceTiles, referenceWorkers)
	return 1 << bits.Len64(uint64(math.Ceil(w))-1)
}
