package graph

import (
	"fmt"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// BetweennessCentrality computes (unnormalized) betweenness centrality
// contributions from the given source vertices via Brandes' algorithm
// expressed algebraically (the paper's reference [16]): the forward
// phase is iterated masked sparse vector-matrix products over the
// arithmetic semiring (path counting with the unvisited complement
// mask), the backward phase the standard dependency accumulation.
//
// For exact BC pass all vertices as sources; any subset yields the
// standard sampled approximation.
//
// The forward phase must retain every frontier for the backward sweep,
// so frontiers cannot be double-buffered within one source — instead
// the per-depth vectors live in an arena that is reused across sources,
// and the push scratch is checked out of eng's workspace pool once for
// the whole batch. After the first source, warm iterations allocate
// nothing. A nil engine builds the scratch once per call.
func BetweennessCentrality(a *sparse.CSR[float64], sources []int, eng *exec.Engine) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: adjacency must be square, got %dx%d",
			sparse.ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	bc := make([]float64, n)
	sr := semiring.PlusTimes[float64]{}
	ws := exec.Dense[float64, semiring.PlusTimes[float64]](eng, sr, n, 1, 0)
	defer ws.Release()

	sigma := make([]float64, n)
	level := make([]int32, n)
	delta := make([]float64, n)

	// Frontier arena: bufs[d] is the depth-d frontier of the current
	// source, storage reused for every source.
	var bufs []*core.SpVec[float64]
	frontAt := func(d int) *core.SpVec[float64] {
		for len(bufs) <= d {
			bufs = append(bufs, &core.SpVec[float64]{})
		}
		return bufs[d]
	}

	for _, src := range sources {
		if src < 0 || src >= n {
			return nil, fmt.Errorf("%w: source %d out of range [0,%d)", sparse.ErrShape, src, n)
		}
		for i := range sigma {
			sigma[i] = 0
			level[i] = -1
			delta[i] = 0
		}
		sigma[src] = 1
		level[src] = 0

		frontier := frontAt(0)
		frontier.Reset(n)
		frontier.Idx = append(frontier.Idx, sparse.Index(src))
		frontier.Val = append(frontier.Val, 1)
		depths := 1
		allowed := func(j sparse.Index) bool { return level[j] < 0 }

		for depth := int32(1); frontier.NNZ() > 0; depth++ {
			next := core.MaskedSpVMInto(sr, frontier, a, allowed, core.Push, ws, frontAt(depths))
			for p, v := range next.Idx {
				level[v] = depth
				sigma[v] = next.Val[p]
			}
			if next.NNZ() == 0 {
				break
			}
			depths++
			frontier = next
		}

		// Backward dependency accumulation, deepest level first.
		for d := depths - 1; d >= 1; d-- {
			for _, u := range bufs[d-1].Idx {
				cols, _ := a.Row(int(u))
				var dep float64
				for _, v := range cols {
					if level[v] == int32(d) {
						dep += sigma[u] / sigma[v] * (1 + delta[v])
					}
				}
				delta[u] = dep
			}
		}
		for v := 0; v < n; v++ {
			if v != src && level[v] >= 0 {
				bc[v] += delta[v]
			}
		}
	}
	return bc, nil
}
