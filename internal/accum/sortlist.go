package accum

import (
	"sort"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// SortList is the sort-based accumulator from the design space of
// Milaković et al. (the paper's GrB reference explores accumulators
// beyond hash and dense): updates are appended to an unordered log and
// deduplicated by a sort + linear merge at gather time. No per-column
// state exists at all, so reset is free and memory is proportional to
// the number of updates — attractive when rows produce few updates,
// hopeless when the same column is hit many times (the log grows with
// duplicates, and sorting costs u·log u for u updates).
//
// Masked updates are filtered against a sorted view of the mask row by
// binary search, since there is no per-slot mask state to consult.
type SortList[T sparse.Number, S semiring.Semiring[T]] struct {
	sr       S
	cols     []sparse.Index
	vals     []T
	maskCols []sparse.Index // current row's mask, for UpdateMasked
}

// NewSortList returns a sort-based accumulator with capacity hints for
// the per-row update count.
func NewSortList[T sparse.Number, S semiring.Semiring[T]](sr S, rowCap int64) *SortList[T, S] {
	return &SortList[T, S]{
		sr:   sr,
		cols: make([]sparse.Index, 0, rowCap),
		vals: make([]T, 0, rowCap),
	}
}

// BeginRow discards the previous row's log — O(1).
//
//spgemm:hotpath
func (s *SortList[T, S]) BeginRow() {
	s.cols = s.cols[:0]
	s.vals = s.vals[:0]
	s.maskCols = nil
}

// LoadMask records the mask row for UpdateMasked's membership checks.
//
//spgemm:hotpath
func (s *SortList[T, S]) LoadMask(cols []sparse.Index) {
	s.maskCols = cols
}

// Update appends the update unconditionally.
//
//spgemm:hotpath
func (s *SortList[T, S]) Update(j sparse.Index, x T) {
	s.cols = append(s.cols, j)
	s.vals = append(s.vals, x)
}

// UpdateMasked appends the update iff j is in the loaded mask row
// (binary search — the log has no per-column state to consult). The
// search is hand-rolled: a sort.Search closure here would sit on the
// per-update path, the single hottest call site of this accumulator.
//
//spgemm:hotpath
func (s *SortList[T, S]) UpdateMasked(j sparse.Index, x T) bool {
	p, hi := 0, len(s.maskCols)
	for p < hi {
		mid := int(uint(p+hi) >> 1)
		if s.maskCols[mid] < j {
			p = mid + 1
		} else {
			hi = mid
		}
	}
	if p >= len(s.maskCols) || s.maskCols[p] != j {
		return false
	}
	s.cols = append(s.cols, j)
	s.vals = append(s.vals, x)
	return true
}

// Scatter appends one B row's products to the log.
//
//spgemm:hotpath
func (s *SortList[T, S]) Scatter(aik T, cols []sparse.Index, vals []T) {
	for p, j := range cols {
		s.Update(j, s.sr.Times(aik, vals[p]))
	}
}

// ScatterMasked is UpdateMasked per B entry.
//
//spgemm:hotpath
func (s *SortList[T, S]) ScatterMasked(aik T, cols []sparse.Index, vals []T) (hits int) {
	for p, j := range cols {
		if s.UpdateMasked(j, s.sr.Times(aik, vals[p])) {
			hits++
		}
	}
	return hits
}

// Gather sorts the log, merges duplicate columns with Plus, intersects
// with maskCols, and appends the result.
func (s *SortList[T, S]) Gather(
	maskCols []sparse.Index, cols []sparse.Index, vals []T,
) ([]sparse.Index, []T) {
	if len(s.cols) == 0 {
		return cols, vals
	}
	sort.Sort(&logSorter[T]{s.cols, s.vals})
	p := 0 // cursor into maskCols (sorted, like the log)
	i := 0
	for i < len(s.cols) {
		j := s.cols[i]
		acc := s.vals[i]
		i++
		for i < len(s.cols) && s.cols[i] == j {
			acc = s.sr.Plus(acc, s.vals[i])
			i++
		}
		// Advance the mask cursor; emit only in-mask columns.
		for p < len(maskCols) && maskCols[p] < j {
			p++
		}
		if p < len(maskCols) && maskCols[p] == j {
			cols = append(cols, j)
			vals = append(vals, acc)
		}
	}
	return cols, vals
}

type logSorter[T sparse.Number] struct {
	cols []sparse.Index
	vals []T
}

func (l *logSorter[T]) Len() int           { return len(l.cols) }
func (l *logSorter[T]) Less(a, b int) bool { return l.cols[a] < l.cols[b] }
func (l *logSorter[T]) Swap(a, b int) {
	l.cols[a], l.cols[b] = l.cols[b], l.cols[a]
	l.vals[a], l.vals[b] = l.vals[b], l.vals[a]
}

// EnableStats is a no-op: the log accumulator has no per-column state,
// so there is nothing probe-like to count.
func (s *SortList[T, S]) EnableStats() {}

// AccumStats reports zeros — reset is free and nothing overflows.
func (s *SortList[T, S]) AccumStats() Stats { return Stats{} }

var _ Accumulator[float64] = (*SortList[float64, semiring.PlusTimes[float64]])(nil)
var _ Instrumented = (*SortList[float64, semiring.PlusTimes[float64]])(nil)
