package graph

import (
	"fmt"
	"slices"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// BetweennessCentralityBatch computes the same quantity as
// BetweennessCentrality (paths follow A's rows, directed graphs too) for
// all sources at once: the algebraic batched-Brandes formulation (the
// paper's reference [16]). Every phase is a masked SpGEMM restricted to
// the level's front F_d — its vertices, ascending, and an |F_d|×s CSR —
// so a level's products cost its front, not the whole graph:
//
//	forward:  F_{d+1} = ¬V(R,:) ⊙ (Aᵀ(R,F_d) × F_d)    R: out-neighbours of F_d
//	backward: T      = F_{d-1} ⊙ (A(F_{d-1},F_d) × W_d)
//
// The A entries dropped meet empty front rows, so the Eq. 2 work and ⊕
// order are the n×n × n×s products': on a symmetric A, bit-identical.
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

// bcFront is one level's compact front: its vertices, ascending, are
// rows[lo:hi] of the sweep's arena; m holds their entries, a row each.
type bcFront struct {
	lo, hi int
	m      *sparse.CSR[float64]
}

// bcSweep is the per-call state of a batched BC: the row arena, the
// visited set, and the buffers each level's products reuse.
type bcSweep struct {
	a, at  *sparse.CSR[float64]
	s      int
	rows   []sparse.Index
	fronts []bcFront
	// seen holds bit v*s+b once source b reached v: the visited set V.
	// reached[v] counts v's bits.
	seen    []uint64
	reached []int32
	// pos[v] is v's row in the front last indexed while stamp[v] == tag.
	pos, stamp []int32
	tag        int32
	// A level's candidate rows, and its extracted operand and mask.
	cand      []sparse.Index
	sub, mask sparse.CSR[float64]
}

// index numbers f's vertices (column k of A or Aᵀ is in f when
// stamp[k] == tag) and empties sub, f wide, and mask.
func (sw *bcSweep) index(f bcFront) {
	sw.tag++
	for i, v := range sw.rows[f.lo:f.hi] {
		sw.stamp[v], sw.pos[v] = sw.tag, int32(i)
	}
	sw.sub = sparse.CSR[float64]{Cols: f.hi - f.lo, RowPtr: append(sw.sub.RowPtr[:0], 0), ColIdx: sw.sub.ColIdx[:0], Val: sw.sub.Val[:0]}
	sw.mask = sparse.CSR[float64]{Cols: sw.s, RowPtr: append(sw.mask.RowPtr[:0], 0), ColIdx: sw.mask.ColIdx[:0], Val: sw.mask.Val[:0]}
}

// extractRow appends to sub row v of src restricted to the indexed
// front's columns, renumbered to their compact order.
func (sw *bcSweep) extractRow(src *sparse.CSR[float64], v sparse.Index) {
	cols, vals := src.Row(int(v))
	for p, k := range cols {
		if sw.stamp[k] == sw.tag {
			sw.sub.ColIdx = append(sw.sub.ColIdx, sparse.Index(sw.pos[k]))
			sw.sub.Val = append(sw.sub.Val, vals[p])
		}
	}
	sw.sub.RowPtr = append(sw.sub.RowPtr, int64(len(sw.sub.ColIdx)))
	sw.sub.Rows++
}

// candidates fills sub with Aᵀ(R,f) and mask with V(R,:), and returns
// R: the ascending out-neighbours of f some source has not reached (the
// complement product would skip a fully reached row).
func (sw *bcSweep) candidates(f bcFront) []sparse.Index {
	sw.tag++
	sw.cand = sw.cand[:0]
	for _, u := range sw.rows[f.lo:f.hi] {
		for _, v := range sw.a.RowCols(int(u)) {
			if sw.stamp[v] != sw.tag && int(sw.reached[v]) < sw.s {
				sw.stamp[v] = sw.tag
				sw.cand = append(sw.cand, v)
			}
		}
	}
	slices.Sort(sw.cand)
	sw.index(f)
	mask := &sw.mask
	for _, v := range sw.cand {
		for b := range sw.s {
			if i := int(v)*sw.s + b; sw.seen[i>>6]&(1<<(i&63)) != 0 {
				mask.ColIdx, mask.Val = append(mask.ColIdx, sparse.Index(b)), append(mask.Val, 1)
			}
		}
		mask.RowPtr = append(mask.RowPtr, int64(len(mask.ColIdx)))
		sw.extractRow(sw.at, v)
	}
	mask.Rows = len(sw.cand)
	return sw.cand
}

// push compacts next, a product over the rows r, in place to its
// nonempty rows and keeps them as the next front, recording their path
// counts in sigma and entries in seen. It reports whether any held one.
func (sw *bcSweep) push(next *sparse.CSR[float64], r []sparse.Index, sigma []float64) bool {
	lo, k := len(sw.rows), 0
	for i, v := range r {
		p0, p1 := next.RowPtr[i], next.RowPtr[i+1]
		if p0 == p1 {
			continue
		}
		for p := p0; p < p1; p++ {
			j := int(v)*sw.s + int(next.ColIdx[p])
			sigma[j] += next.Val[p]
			sw.seen[j>>6] |= 1 << (j & 63)
		}
		sw.reached[v] += int32(p1 - p0)
		sw.rows = append(sw.rows, v)
		k++
		next.RowPtr[k] = p1
	}
	if k == 0 {
		return false
	}
	next.Rows, next.RowPtr = k, next.RowPtr[:k+1]
	sw.fronts = append(sw.fronts, bcFront{lo: lo, hi: len(sw.rows), m: next})
	return true
}

func bcBatch(a *sparse.CSR[float64], sources []int, cfg core.Config, fused bool) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: adjacency must be square, got %dx%d",
			sparse.ErrShape, a.Rows, a.Cols)
	}
	n, s := a.Rows, len(sources)
	bc := make([]float64, n)
	if s == 0 || n == 0 {
		return bc, nil
	}
	sr := semiring.PlusTimes[float64]{}
	idx := make([]int32, 3*n)
	sw := &bcSweep{
		a: a, at: sparse.Transpose(a), s: s, seen: make([]uint64, (n*s+63)/64),
		pos: idx[:n], stamp: idx[n : 2*n], reached: idx[2*n:],
		rows: make([]sparse.Index, 0, n), cand: make([]sparse.Index, 0, n),
		sub: *sparse.NewCSR[float64](n, 0, int64(n)), mask: *sparse.NewCSR[float64](n, 0, int64(n)),
	}
	// sigma[v*s+b] accumulates shortest-path counts.
	sigma := make([]float64, n*s)

	// The initial front: entry (src_b, b) = 1, a row per distinct source.
	for _, src := range sources {
		if src < 0 || src >= n {
			return nil, fmt.Errorf("graph: source %d out of range [0,%d)", src, n)
		}
		sw.cand = append(sw.cand, sparse.Index(src))
	}
	slices.Sort(sw.cand)
	sw.cand = slices.Compact(sw.cand)
	f0 := sparse.NewCSR[float64](len(sw.cand), s, int64(s))
	for i, v := range sw.cand {
		for b, src := range sources {
			if src == int(v) {
				f0.ColIdx, f0.Val = append(f0.ColIdx, sparse.Index(b)), append(f0.Val, 1)
			}
		}
		f0.RowPtr[i+1] = int64(len(f0.ColIdx))
	}
	sw.push(f0, sw.cand, sigma)

	// Forward sweep: every front is kept for the backward phase.
	for grew := true; grew; {
		f := sw.fronts[len(sw.fronts)-1]
		r := sw.candidates(f)
		next, err := core.MaskedSpGEMMComp[float64](sr, &sw.mask, &sw.sub, f.m, cfg)
		if err != nil {
			return nil, err
		}
		grew = sw.push(next, r, sigma)
	}

	// Backward sweep: dependency accumulation, deepest front first.
	delta := make([]float64, n*s)
	// W_d, front d's pattern carrying (1+delta)/sigma, borrows its row
	// pointers and columns under one header, with values in one buffer
	// sized by the widest front; every level's staged T shares one buffer.
	var widest int64
	for _, fr := range sw.fronts[1:] {
		widest = max(widest, fr.m.NNZ())
	}
	w := &sparse.CSR[float64]{Cols: s}
	wVals := make([]float64, widest)
	var tm *sparse.CSR[float64]
	// fold adds row i of T (vertex prev[i] of F_{d-1}) into delta; the
	// fused T streams its rows into it. One closure serves every level.
	var prev []sparse.Index
	fold := func(i int, cols []sparse.Index, vals []float64) {
		base := int(prev[i]) * s
		for p, b := range cols {
			delta[base+int(b)] += vals[p] * sigma[base+int(b)]
		}
	}
	for d := len(sw.fronts) - 1; d >= 1; d-- {
		f, fp := sw.fronts[d], sw.fronts[d-1]
		w.Rows, w.RowPtr, w.ColIdx, w.Val = f.m.Rows, f.m.RowPtr, f.m.ColIdx, wVals[:f.m.NNZ()]
		for i, v := range sw.rows[f.lo:f.hi] {
			base := int(v) * s
			for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
				b := int(w.ColIdx[p])
				w.Val[p] = (1 + delta[base+b]) / sigma[base+b]
			}
		}
		// T = F_{d-1} ⊙ (A(F_{d-1},F_d) × W_d): for u in front d-1, the
		// sum over its out-neighbours v in front d of (1+delta_v)/sigma_v.
		sw.index(f)
		prev = sw.rows[fp.lo:fp.hi]
		for _, u := range prev {
			sw.extractRow(a, u)
		}
		if fused {
			if err := core.MaskedSpGEMMStream[float64](sr, fp.m, &sw.sub, w, cfg, fold); err != nil {
				return nil, err
			}
			continue
		}
		var err error
		tm, err = core.MaskedSpGEMMInto[float64](sr, tm, fp.m, &sw.sub, w, cfg)
		if err != nil {
			return nil, err
		}
		for i := range prev {
			cols, vals := tm.Row(i)
			fold(i, cols, vals)
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
