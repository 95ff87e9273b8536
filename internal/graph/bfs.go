package graph

import (
	"fmt"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sparse"
)

// Direction selects how a BFS level is expanded — the vector analogue
// of the paper's iteration-space choice, known as push/pull or direction
// optimization in the BFS literature (paper §III-B relates the two).
type Direction int

const (
	// Push scans the rows of the frontier's vertices (the Fig. 5
	// linear-scan analogue).
	Push Direction = iota
	// Pull scans the rows of the unvisited vertices for a frontier
	// neighbour (the Fig. 7 co-iteration analogue). It reads rows as
	// in-neighbourhoods, which they are only for a symmetric matrix.
	Pull
	// Auto picks per level by Beamer's rule (chooseBFSDirection).
	Auto
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
// matrix a; a's pattern is read, its values are not. dir selects Push,
// Pull, or Auto per level. Paths follow entry (i, j) from i to j. Pull
// reads a's rows as in-neighbourhoods, which they are only when a is
// symmetric, so a's symmetry is read from sym before the first level
// that would pull — the first level under Pull, the first the rule picks
// pull for under Auto, none under Push — and a non-symmetric a pushes
// that level and every later one. sym remembers the answer across calls
// (nil: checked in this call, one pass over a), so a search on a matrix
// whose symmetry is known pulls without the check, and a search that
// never pulls, as most searches of a sparse graph under Auto, never asks.
//
// The state is call-local and flat, as in BetweennessCentrality: the
// level array, which is the result, and one arena of the reached
// vertices, level by level, whose last level is the frontier. A push
// level walks the frontier's rows; a pull level walks the unvisited
// vertices' rows and stops at the first neighbour on the frontier.
func BFS(a *sparse.CSR[float64], sym *Symmetry, src int, dir Direction) (*BFSResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: adjacency must be square, got %dx%d",
			sparse.ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	if src < 0 || src >= n {
		return nil, fmt.Errorf("%w: source %d out of range [0,%d)", sparse.ErrShape, src, n)
	}
	switch dir {
	case Push, Pull, Auto:
	default:
		return nil, fmt.Errorf("%w: unknown direction %d", core.ErrConfig, dir)
	}
	res := &BFSResult{Level: make([]int32, n)}
	level := res.Level
	for v := range level {
		level[v] = -1
	}
	level[src] = 0
	// Every vertex is reached at most once, so order never outgrows n.
	order := make([]sparse.Index, 1, n)
	order[0] = sparse.Index(src)
	checked := false
	for lo, d := 0, int32(1); lo < len(order); d++ {
		hi := len(order)
		step := dir
		if step == Auto {
			step = chooseBFSDirection(a, order[lo:hi], hi)
		}
		if step == Pull && !checked {
			checked = true
			if !sym.Of(a) {
				dir, step = Push, Push
			}
		}
		if step == Push {
			res.Pushes++
			for _, u := range order[lo:hi] {
				for _, v := range a.RowCols(int(u)) {
					if level[v] < 0 {
						level[v] = d
						order = append(order, v)
					}
				}
			}
		} else {
			res.Pulls++
			for v := range n {
				if level[v] >= 0 {
					continue
				}
				for _, u := range a.RowCols(v) {
					if level[u] == d-1 {
						level[v] = d
						order = append(order, sparse.Index(v))
						break
					}
				}
			}
		}
		lo = hi
	}
	res.Visited = len(order)
	return res, nil
}

// chooseBFSDirection applies the classic direction-optimization rule:
// pull when the frontier's outgoing edges outnumber a fraction of the
// unexplored edges, push otherwise.
func chooseBFSDirection(a *sparse.CSR[float64], frontier []sparse.Index, visited int) Direction {
	var frontierEdges int64
	for _, u := range frontier {
		frontierEdges += a.RowNNZ(int(u))
	}
	remaining := a.NNZ() * int64(a.Rows-visited) / int64(max(a.Rows, 1))
	const alpha = 4 // Beamer's switching parameter
	if frontierEdges*alpha > remaining {
		return Pull
	}
	return Push
}
