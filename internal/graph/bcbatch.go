package graph

import (
	"fmt"
	"sort"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// BetweennessCentralityBatch computes the same quantity as
// BetweennessCentrality but processes all sources simultaneously as an
// n×s matrix computation — the algebraic batched-Brandes formulation
// (the paper's reference [16] scales BC exactly this way). Every phase
// is a masked SpGEMM on rectangular operands:
//
//	forward:  F_{d+1} = ¬V ⊙ (A × F_d)        (complement mask: unvisited)
//	backward: T      = F_{d-1} ⊙ (A × W_d)    (mask: the previous front)
//
// so the batch variant exercises the exact kernels this repository
// studies, at batch width s instead of vector width 1.
func BetweennessCentralityBatch(a *sparse.CSR[float64], sources []int, cfg core.Config) ([]float64, error) {
	return bcBatch(a, sources, cfg, false)
}

// BetweennessCentralityBatchFused is BetweennessCentralityBatch with
// the backward sweep's masked multiply streamed: each dependency row
// T[u,:] = (F_{d-1} ⊙ (A × W_d))[u,:] is folded into the delta vector
// straight from the worker's gather buffer via core.MaskedSpGEMMStream,
// so the per-level dependency matrix is never assembled as a CSR. Rows
// are delivered disjointly, and row u only writes delta[u*s..], so the
// sink needs no locking. Results are identical to the unfused batch.
func BetweennessCentralityBatchFused(a *sparse.CSR[float64], sources []int, cfg core.Config) ([]float64, error) {
	return bcBatch(a, sources, cfg, true)
}

func bcBatch(a *sparse.CSR[float64], sources []int, cfg core.Config, fused bool) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: adjacency must be square, got %dx%d",
			sparse.ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	s := len(sources)
	bc := make([]float64, n)
	if s == 0 || n == 0 {
		return bc, nil
	}
	sr := semiring.PlusTimes[float64]{}

	// Initial frontier and visited set: entry (src_b, b) = 1.
	front := sparse.NewCOO[float64](n, s, int64(s))
	for b, src := range sources {
		if src < 0 || src >= n {
			return nil, fmt.Errorf("graph: source %d out of range [0,%d)", src, n)
		}
		front.Add(sparse.Index(src), sparse.Index(b), 1)
	}
	f := front.ToCSR()
	visited := f.Clone()

	// sigma[v*s+b] accumulates shortest-path counts.
	sigma := make([]float64, n*s)
	for b, src := range sources {
		sigma[src*s+b] = 1
	}

	// Forward sweep: store each front for the backward phase. Each
	// level's visited set is written into the storage of the one before.
	fronts := []*sparse.CSR[float64]{f}
	var spare *sparse.CSR[float64]
	for f.NNZ() > 0 {
		next, err := core.MaskedSpGEMMComp[float64](sr, visited, a, f, cfg)
		if err != nil {
			return nil, err
		}
		if next.NNZ() == 0 {
			break
		}
		for i := nextRow(next, 0); i < n; i = nextRow(next, i+1) {
			cols, vals := next.Row(i)
			for p, b := range cols {
				sigma[i*s+int(b)] += vals[p]
			}
		}
		// The mask is structural, so the union needs no Pattern() copy of
		// the new front: its values ride along unread.
		union, err := core.EWiseAddInto[float64](sr, spare, visited, next)
		if err != nil {
			return nil, err
		}
		visited, spare = union, visited
		fronts = append(fronts, next)
		f = next
	}

	// Backward sweep: dependency accumulation, deepest front first.
	delta := make([]float64, n*s)
	// W_d is the front-d pattern carrying (1+delta)/sigma. The fronts are
	// immutable from here on, so W_d borrows front d's own row pointers
	// and column indices; only the values are new, in one buffer sized by
	// the widest front and reused down the levels.
	var widest int64
	for _, fr := range fronts[1:] {
		widest = max(widest, fr.NNZ())
	}
	wVals := make([]float64, widest)
	// The staged T of each level is assembled into one buffer, reused
	// down the levels; the fronts it is masked by stay allocated.
	var tm *sparse.CSR[float64]
	// The fused T streams its rows straight into delta. The sink reads
	// only state fixed for the sweep, so one closure serves every level.
	var sink func(i int, cols []sparse.Index, vals []float64)
	if fused {
		sink = func(i int, cols []sparse.Index, vals []float64) {
			base := i * s
			for p, b := range cols {
				delta[base+int(b)] += vals[p] * sigma[base+int(b)]
			}
		}
	}
	for d := len(fronts) - 1; d >= 1; d-- {
		fr := fronts[d]
		w := &sparse.CSR[float64]{Rows: n, Cols: s, RowPtr: fr.RowPtr, ColIdx: fr.ColIdx, Val: wVals[:fr.NNZ()]}
		for i := nextRow(w, 0); i < n; i = nextRow(w, i+1) {
			for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
				b := int(w.ColIdx[p])
				w.Val[p] = (1 + delta[i*s+b]) / sigma[i*s+b]
			}
		}
		// T = F_{d-1} ⊙ (A × W_d): for u in front d-1, the sum over
		// neighbors v in front d of (1+delta_v)/sigma_v.
		if fused {
			if err := core.MaskedSpGEMMStream[float64](sr, fronts[d-1], a, w, cfg, sink); err != nil {
				return nil, err
			}
			continue
		}
		var err error
		tm, err = core.MaskedSpGEMMInto[float64](sr, tm, fronts[d-1], a, w, cfg)
		if err != nil {
			return nil, err
		}
		for i := nextRow(tm, 0); i < n; i = nextRow(tm, i+1) {
			cols, vals := tm.Row(i)
			for p, b := range cols {
				delta[i*s+int(b)] += vals[p] * sigma[i*s+int(b)]
			}
		}
	}

	for b, src := range sources {
		for v := 0; v < n; v++ {
			if v != src {
				bc[v] += delta[v*s+b]
			}
		}
	}
	return bc, nil
}

// nextRow returns the first row at or after i ≤ m.Rows that holds an
// entry, or m.Rows: the row holding entry RowPtr[i], found by binary
// search, so a level's loop skips each run of empty rows in O(log n).
func nextRow(m *sparse.CSR[float64], i int) int {
	p := m.RowPtr[i]
	return i + sort.Search(m.Rows-i, func(d int) bool { return m.RowPtr[i+d+1] > p })
}
