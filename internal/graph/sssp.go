package graph

import (
	"fmt"
	"math"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// SSSP computes single-source shortest paths over non-negative edge
// weights (the stored values of a) with the algebraic Bellman-Ford
// iteration: each round relaxes the frontier through a masked sparse
// vector-matrix product over the tropical (min, +) semiring, and only
// vertices whose distance improved carry into the next round — the
// delta-stepping-flavored frontier optimization.
//
// Returns +Inf for unreachable vertices. Negative weights are rejected.
// The push scratch comes from eng's workspace pool, with the frontier
// and candidate vectors double-buffered across rounds; a nil engine
// builds the scratch once per call.
func SSSP(a *sparse.CSR[float64], src int, eng *exec.Engine) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: adjacency must be square, got %dx%d",
			sparse.ErrShape, a.Rows, a.Cols)
	}
	if src < 0 || src >= a.Rows {
		return nil, fmt.Errorf("graph: source %d out of range [0,%d)", src, a.Rows)
	}
	for _, v := range a.Val {
		if v < 0 {
			return nil, fmt.Errorf("graph: SSSP requires non-negative weights, found %v", v)
		}
	}
	n := a.Rows
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0

	sr := semiring.MinPlus[float64]{Inf: math.Inf(1)}
	ws := exec.Dense[float64, semiring.MinPlus[float64]](eng, sr, n, 1, 0)
	defer ws.Release()
	all := func(sparse.Index) bool { return true }
	frontier := &core.SpVec[float64]{N: n, Idx: []sparse.Index{sparse.Index(src)}, Val: []float64{0}}
	cand := &core.SpVec[float64]{}
	next := &core.SpVec[float64]{}

	// Bellman-Ford terminates after at most n-1 productive rounds; the
	// frontier empties earlier on most graphs.
	for round := 0; round < n && frontier.NNZ() > 0; round++ {
		cand = core.MaskedSpVMInto(sr, frontier, a, all, core.Push, ws, cand)
		next.Reset(n)
		for p, v := range cand.Idx {
			if cand.Val[p] < dist[v] {
				dist[v] = cand.Val[p]
				next.Idx = append(next.Idx, v)
				next.Val = append(next.Val, cand.Val[p])
			}
		}
		frontier, next = next, frontier
	}
	return dist, nil
}
