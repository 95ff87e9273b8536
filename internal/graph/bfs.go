package graph

import (
	"fmt"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// BFSResult holds the outcome of a breadth-first search.
type BFSResult struct {
	// Level[v] is the hop distance from the source, or -1 if unreachable.
	Level []int32
	// Visited is the number of reachable vertices (including the source).
	Visited int
	// Pushes and Pulls count the per-level direction decisions — the
	// vector-level analogue of the paper's iteration-space statistics.
	Pushes, Pulls int
}

// BFS runs a direction-optimizing breadth-first search (Beamer et al.,
// the paper's reference [15]) from src over the graph with adjacency
// matrix a, implemented as iterated masked sparse vector-matrix products
// over the Boolean semiring. dir selects Push, Pull, or Auto per level.
// Paths follow entry (i, j) from i to j. Pull reads a's rows as
// in-neighbourhoods, which they are only when a is symmetric, so unless
// dir is Push a's symmetry is checked once (one pass over a) and a
// non-symmetric a pushes every level.
//
// The dense traversal scratch is drawn from eng's workspace pool, so
// repeated searches recycle one scratch block instead of allocating per
// level. The frontier vectors are double-buffered either way; a nil
// engine builds the scratch once per call.
func BFS(a *sparse.CSR[float64], src int, dir core.Direction, eng *exec.Engine) (*BFSResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: adjacency must be square, got %dx%d",
			sparse.ErrShape, a.Rows, a.Cols)
	}
	if src < 0 || src >= a.Rows {
		return nil, fmt.Errorf("%w: source %d out of range [0,%d)", sparse.ErrShape, src, a.Rows)
	}
	switch dir {
	case core.Push, core.Pull, core.Auto:
	default:
		return nil, fmt.Errorf("%w: unknown direction %d", core.ErrConfig, dir)
	}
	if dir != core.Push && !sparse.IsSymmetric(a) {
		dir = core.Push
	}
	res := &BFSResult{Level: make([]int32, a.Rows)}
	for i := range res.Level {
		res.Level[i] = -1
	}
	res.Level[src] = 0
	res.Visited = 1

	sr := semiring.OrAnd[float64]{}
	ws := exec.Dense[float64, semiring.OrAnd[float64]](eng, sr, a.Rows, 1, 0)
	defer ws.Release()
	frontier := &core.SpVec[float64]{N: a.Rows, Idx: []sparse.Index{sparse.Index(src)}, Val: []float64{1}}
	spare := &core.SpVec[float64]{}
	allowed := func(j sparse.Index) bool { return res.Level[j] < 0 }

	for depth := int32(1); frontier.NNZ() > 0; depth++ {
		d := dir
		if d == core.Auto {
			d = chooseBFSDirection(frontier, a, res.Visited)
		}
		if d == core.Push {
			res.Pushes++
		} else {
			res.Pulls++
		}
		next := core.MaskedSpVMInto(sr, frontier, a, allowed, d, ws, spare)
		for _, v := range next.Idx {
			res.Level[v] = depth
		}
		res.Visited += next.NNZ()
		frontier, spare = next, frontier
	}
	return res, nil
}

// chooseBFSDirection applies the classic direction-optimization rule:
// pull when the frontier's outgoing edges outnumber a fraction of the
// unexplored edges, push otherwise.
func chooseBFSDirection(f *core.SpVec[float64], a *sparse.CSR[float64], visited int) core.Direction {
	var frontierEdges int64
	for _, u := range f.Idx {
		frontierEdges += a.RowNNZ(int(u))
	}
	remaining := a.NNZ() * int64(a.Rows-visited) / int64(max(a.Rows, 1))
	const alpha = 4 // Beamer's switching parameter
	if frontierEdges*alpha > remaining {
		return core.Pull
	}
	return core.Push
}
