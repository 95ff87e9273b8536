package core

import (
	"slices"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// SpVec is a sorted sparse vector: the 1×n (or n×1) operand of the
// vector kernel BFS is built from.
type SpVec[T sparse.Number] struct {
	N   int
	Idx []sparse.Index
	Val []T
}

// NNZ returns the number of stored entries.
func (v *SpVec[T]) NNZ() int { return len(v.Idx) }

// Reset truncates the vector to empty with dimension n, keeping the
// entry storage for reuse (double-buffered frontier loops).
func (v *SpVec[T]) Reset(n int) {
	v.N = n
	v.Idx = v.Idx[:0]
	v.Val = v.Val[:0]
}

// Direction selects the traversal of a masked sparse vector × sparse
// matrix product — the vector analogue of the paper's iteration-space
// choice, known as push/pull or direction optimization in BFS
// literature (paper §III-B relates the two).
type Direction int

const (
	// Push scans the rows of A selected by the input vector (the Fig. 5
	// linear-scan analogue).
	Push Direction = iota
	// Pull scans candidate outputs and co-iterates the input vector with
	// each A^T row (the Fig. 7 co-iteration analogue). Requires at the
	// matrix being structurally symmetric or the caller passing A^T.
	Pull
	// Auto picks per call using the relative work estimates.
	Auto
)

// MaskedSpVM computes y = f ⊙′ (fᵀ × A) restricted to positions where
// allowed returns true (a complement mask in BFS: "not yet visited").
// A must have sorted rows; Pull additionally assumes A is the matrix
// whose rows are the in-neighborhoods of each candidate (for symmetric
// adjacency matrices A itself).
//
// The result vector is sorted. Every call allocates its scratch and its
// result; iterative callers should use MaskedSpVMInto with a pooled
// workspace instead.
func MaskedSpVM[T sparse.Number, S semiring.Semiring[T]](
	sr S, f *SpVec[T], a *sparse.CSR[T], allowed func(sparse.Index) bool, dir Direction,
) *SpVec[T] {
	return MaskedSpVMInto(sr, f, a, allowed, dir, nil, nil)
}

// MaskedSpVMInto is MaskedSpVM against caller-owned state: ws, when
// non-nil, must be an exec.Dense workspace with at least one worker
// block sized for a.Cols columns (its dense scratch replaces the push
// traversal's per-call vectors and is left clean for pooled reuse), and
// out, when non-nil, receives the result in place of a fresh vector
// (its entry storage is reused — the double-buffering hook for frontier
// loops). Either may be nil independently; out must not alias f.
func MaskedSpVMInto[T sparse.Number, S semiring.Semiring[T]](
	sr S, f *SpVec[T], a *sparse.CSR[T], allowed func(sparse.Index) bool, dir Direction,
	ws *exec.Workspace[T, S], out *SpVec[T],
) *SpVec[T] {
	if dir == Auto {
		dir = chooseDirection(f, a)
	}
	if out == nil {
		out = &SpVec[T]{}
	}
	out.Reset(a.Cols)
	switch dir {
	case Push:
		return pushSpVM(sr, f, a, allowed, ws, out)
	case Pull:
		return pullSpVM(sr, f, a, allowed, out)
	default:
		panic("core: unknown direction")
	}
}

// chooseDirection estimates push work (edges out of the frontier) vs
// pull work (co-iterating the frontier against every candidate row) and
// picks the cheaper, mirroring Eq. 3 at vector granularity.
func chooseDirection[T sparse.Number](f *SpVec[T], a *sparse.CSR[T]) Direction {
	var pushWork int64
	for _, u := range f.Idx {
		pushWork += a.RowNNZ(int(u))
	}
	// Pull must consider all rows; approximate its per-row cost by the
	// binary-search cost of the frontier against the average row.
	avgRow := int(a.NNZ() / int64(max(a.Rows, 1)))
	pullWork := int64(a.Rows) * int64(log2ceil(max(avgRow, 2))) * int64(len(f.Idx)) / int64(max(avgRow, 1))
	if pullWork < pushWork {
		return Pull
	}
	return Push
}

func pushSpVM[T sparse.Number, S semiring.Semiring[T]](
	sr S, f *SpVec[T], a *sparse.CSR[T], allowed func(sparse.Index) bool,
	ws *exec.Workspace[T, S], out *SpVec[T],
) *SpVec[T] {
	var sc *exec.DenseScratch[T]
	if ws != nil {
		sc = &ws.Dense[0]
	} else {
		sc = &exec.DenseScratch[T]{
			Vals:  make([]T, a.Cols),
			State: make([]uint8, a.Cols),
		}
	}
	vals, present := sc.Vals, sc.State
	touched := sc.Touched[:0]
	for p, u := range f.Idx {
		fu := f.Val[p]
		cols, avs := a.Row(int(u))
		for q, j := range cols {
			if !allowed(j) {
				continue
			}
			x := sr.Times(fu, avs[q])
			if present[j] != 0 {
				vals[j] = sr.Plus(vals[j], x)
			} else {
				present[j] = 1
				vals[j] = x
				touched = append(touched, j)
			}
		}
	}
	slices.Sort(touched)
	for _, j := range touched {
		out.Idx = append(out.Idx, j)
		out.Val = append(out.Val, vals[j])
		present[j] = 0 // restore the scratch's clean state
	}
	sc.Touched = touched[:0]
	return out
}

func pullSpVM[T sparse.Number, S semiring.Semiring[T]](
	sr S, f *SpVec[T], a *sparse.CSR[T], allowed func(sparse.Index) bool, out *SpVec[T],
) *SpVec[T] {
	for v := 0; v < a.Rows; v++ {
		j := sparse.Index(v)
		if !allowed(j) {
			continue
		}
		cols, avs := a.Row(v)
		// Sorted-merge co-iteration of the frontier and row v.
		p, q := 0, 0
		var acc T
		found := false
		for p < len(f.Idx) && q < len(cols) {
			switch {
			case f.Idx[p] < cols[q]:
				p++
			case f.Idx[p] > cols[q]:
				q++
			default:
				x := sr.Times(f.Val[p], avs[q])
				if found {
					acc = sr.Plus(acc, x)
				} else {
					acc = x
					found = true
				}
				p++
				q++
			}
		}
		if found {
			out.Idx = append(out.Idx, j)
			out.Val = append(out.Val, acc)
		}
	}
	return out
}
