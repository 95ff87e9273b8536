// Package tiling implements the paper's §III-A: estimating per-row work
// for the masked-SpGEMM (Eq. 2) and partitioning the output rows into
// tiles, either uniformly or FLOP-balanced. Only the row dimension is
// tiled and only C, M and A are split; B is never tiled — exactly the
// scheme the paper studies (its §V-A flags 2-D tiling as future work).
package tiling

import (
	"fmt"
	"sort"

	"maskedspgemm/internal/sparse"
)

// Tile is a half-open range of output rows [Lo, Hi).
type Tile struct {
	Lo, Hi int
}

// Rows returns the number of rows in the tile.
func (t Tile) Rows() int { return t.Hi - t.Lo }

// Strategy selects how tiles are formed.
type Strategy int

const (
	// Uniform cuts the rows into equally sized tiles regardless of work
	// ("homogeneous tiling", Fig. 6 sub-figure 1).
	Uniform Strategy = iota
	// FlopBalanced cuts the rows so each tile carries roughly equal
	// estimated work per Eq. 2 (Fig. 6 sub-figure 2).
	FlopBalanced
)

func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "Uniform"
	case FlopBalanced:
		return "FlopBalanced"
	default:
		return "Unknown"
	}
}

// RowWork returns the paper's Eq. 2 estimate for every output row:
//
//	W[i] = nnz(M[i,:]) + Σ_{A[i,k]≠0} nnz(B[k,:])
//
// computed in O(nnz(A) + rows) time using only CSR row pointers.
func RowWork[T sparse.Number](a, b, m *sparse.CSR[T]) []int64 {
	w := make([]int64, a.Rows)
	rowWorkInto(w, a, b, m, 0, a.Rows)
	return w
}

// rowWorkInto fills w[lo:hi] with the Eq. 2 estimate — the shared body
// of the serial and block-parallel work estimators.
func rowWorkInto[T sparse.Number](w []int64, a, b, m *sparse.CSR[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		wi := m.RowNNZ(i)
		for _, k := range a.RowCols(i) {
			wi += b.RowNNZ(int(k))
		}
		w[i] = wi
	}
}

// FlopCount returns Σ_{A[i,k]≠0} nnz(B[k,:]) — the classical SpGEMM flop
// count, without the mask term. GrB and SuiteSparse:GraphBLAS size their
// accumulators from per-row maxima of this quantity.
func FlopCount[T sparse.Number](a, b *sparse.CSR[T]) (total int64, maxRow int64) {
	return flopCountRange(a, b, 0, a.Rows)
}

// flopCountRange computes the flop total and per-row maximum over rows
// [lo, hi) — the shared body of the serial and block-parallel counters.
func flopCountRange[T sparse.Number](a, b *sparse.CSR[T], lo, hi int) (total int64, maxRow int64) {
	for i := lo; i < hi; i++ {
		var f int64
		for _, k := range a.RowCols(i) {
			f += b.RowNNZ(int(k))
		}
		total += f
		if f > maxRow {
			maxRow = f
		}
	}
	return total, maxRow
}

// UniformTiles splits rows into at most n equally sized tiles. Empty
// tiles are never produced: if n exceeds rows, each row is its own tile.
func UniformTiles(rows, n int) []Tile {
	if n > rows {
		n = rows
	}
	if n <= 0 {
		n = 1
	}
	tiles := make([]Tile, 0, n)
	for t := 0; t < n; t++ {
		lo := rows * t / n
		hi := rows * (t + 1) / n
		if lo < hi {
			tiles = append(tiles, Tile{lo, hi})
		}
	}
	return tiles
}

// BalancedTiles splits rows into at most n tiles of roughly equal total
// work. Boundaries are found by binary search in the prefix-sum of work,
// so the split is O(rows + n log rows). A single row is never divided
// (the row is the scheduling atom, as in the paper), so a tile can
// exceed the ideal share when one row dominates.
func BalancedTiles(work []int64, n int) []Tile {
	return BalancedFromPrefix(PrefixSum(work, 1), n)
}

// BalancedFromPrefix places the tile boundaries given the ready prefix
// sum of the work estimate (len(prefix) = rows+1). The boundary loop is
// O(n log rows) and carries the previous boundary forward, so it stays
// serial; the O(rows) prefix sum is where the construction time goes
// and is what WorkPrefixE parallelizes. Exported so callers that time
// the plan phases separately (internal/core's instrumented path) can
// run the boundary placement under its own span.
func BalancedFromPrefix(prefix []int64, n int) []Tile {
	rows := len(prefix) - 1
	if n > rows {
		n = rows
	}
	if n <= 0 {
		n = 1
	}
	total := prefix[rows]
	tiles := make([]Tile, 0, n)
	lo := 0
	for t := 1; t <= n && lo < rows; t++ {
		target := total * int64(t) / int64(n)
		// First boundary whose prefix reaches the cumulative target, then
		// step back if the previous boundary is strictly closer to it —
		// halves the overshoot a heavy row causes.
		hi := sort.Search(rows+1, func(i int) bool { return prefix[i] >= target })
		if hi-1 > lo && target-prefix[hi-1] < prefix[hi]-target {
			hi--
		}
		if hi <= lo {
			hi = lo + 1
		}
		if t == n || hi > rows {
			hi = rows
		}
		tiles = append(tiles, Tile{lo, hi})
		lo = hi
	}
	return tiles
}

// Make builds tiles for the given operands with the requested strategy
// and tile count, serially; MakeParallelE spreads the work estimation
// over a worker pool. An unknown strategy panics.
func Make[T sparse.Number](s Strategy, n int, a, b, m *sparse.CSR[T]) []Tile {
	return must(MakeParallelE(nil, s, n, 1, a, b, m))
}

// CheckPartition verifies that tiles cover [0, rows) exactly once, in
// order, with no empty tiles. Used by tests and debug assertions.
func CheckPartition(tiles []Tile, rows int) error {
	next := 0
	for i, t := range tiles {
		if t.Lo != next {
			return fmt.Errorf("tiling: tile %d starts at %d, want %d", i, t.Lo, next)
		}
		if t.Hi <= t.Lo {
			return fmt.Errorf("tiling: tile %d empty [%d,%d)", i, t.Lo, t.Hi)
		}
		next = t.Hi
	}
	if next != rows {
		return fmt.Errorf("tiling: tiles end at %d, want %d", next, rows)
	}
	return nil
}

// Imbalance returns max tile work divided by mean tile work — 1.0 is
// perfect balance. Benchmarks report it alongside runtimes.
func Imbalance(tiles []Tile, work []int64) float64 {
	if len(tiles) == 0 {
		return 1
	}
	var total, maxTile int64
	for _, t := range tiles {
		var w int64
		for i := t.Lo; i < t.Hi; i++ {
			w += work[i]
		}
		total += w
		if w > maxTile {
			maxTile = w
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(tiles))
	return float64(maxTile) / mean
}
