package graph

import (
	"fmt"
	"math"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// CCResult is the outcome of an algebraic connected-components run.
type CCResult struct {
	// Label[v] is the component representative of v (the smallest vertex
	// id in its component).
	Label []int32
	// Components is the number of distinct components.
	Components int
	// Iterations is the number of label-propagation rounds.
	Iterations int
}

// ConnectedComponentsLabelProp computes connected components by
// algebraic label propagation: every vertex starts with its own id as
// label, and each round pushes labels along edges keeping the minimum —
// a masked sparse vector-matrix product over the (min, first) semiring.
// Only vertices whose label changed stay in the frontier, so rounds
// shrink as the labels converge (in O(diameter) rounds).
//
// The push scratch is checked out of eng's workspace pool once for the
// whole run, and the frontier/candidate vectors are double-buffered, so
// warm iterations allocate nothing. A nil engine builds the scratch once
// per call.
func ConnectedComponentsLabelProp(a *sparse.CSR[float64], eng *exec.Engine) (*CCResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: adjacency must be square, got %dx%d",
			sparse.ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	label := make([]float64, n)
	frontier := &core.SpVec[float64]{N: n, Idx: make([]sparse.Index, n), Val: make([]float64, n)}
	for v := 0; v < n; v++ {
		label[v] = float64(v)
		frontier.Idx[v] = sparse.Index(v)
		frontier.Val[v] = float64(v)
	}

	sr := semiring.MinFirst[float64]{Inf: math.Inf(1)}
	ws := exec.Dense[float64, semiring.MinFirst[float64]](eng, sr, n, 1, 0)
	defer ws.Release()
	all := func(sparse.Index) bool { return true }
	// Three rotating buffers: the live frontier, the product candidates,
	// and the improvements that become the next frontier.
	cand := &core.SpVec[float64]{}
	next := &core.SpVec[float64]{}
	iters := 0
	for frontier.NNZ() > 0 {
		iters++
		cand = core.MaskedSpVMInto(sr, frontier, a, all, core.Push, ws, cand)
		// Keep only strict improvements; they form the next frontier.
		next.Reset(n)
		for p, v := range cand.Idx {
			if cand.Val[p] < label[v] {
				label[v] = cand.Val[p]
				next.Idx = append(next.Idx, v)
				next.Val = append(next.Val, cand.Val[p])
			}
		}
		frontier, next = next, frontier
	}

	res := &CCResult{Label: make([]int32, n), Iterations: iters}
	seen := map[int32]bool{}
	for v := 0; v < n; v++ {
		res.Label[v] = int32(label[v])
		if !seen[res.Label[v]] {
			seen[res.Label[v]] = true
			res.Components++
		}
	}
	return res, nil
}
