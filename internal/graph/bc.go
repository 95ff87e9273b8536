package graph

import (
	"fmt"
	"slices"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
)

// BetweennessCentrality computes (unnormalized) betweenness centrality
// contributions from the given source vertices with Brandes' algorithm:
// per source, a push BFS over A's rows counts shortest paths, and a
// backward sweep, deepest level first, accumulates dependencies. Paths
// follow entry (i, j) from i to j, so directed graphs are supported; A's
// pattern is read, its values are not. For exact BC pass all vertices as
// sources; any subset yields the standard sampled approximation, and a
// repeated source counts once per occurrence.
//
// Sources are split across cfg.Workers (0 = GOMAXPROCS) in blocks of
// p. Each block is one sched.BlocksE in which every worker runs one
// source on state of its own; then the caller adds the block's
// dependencies into the scores in source order, so the scores are
// bit-identical at every worker count. Only cfg.Workers and cfg.Context
// are read: BC runs no masked product and takes no workspace or plan
// from cfg.Engine. A cancelled context stops the call before the next
// block (ErrCanceled), and a panic in a worker returns ErrPanic. A
// non-square a or a source outside [0, n) is ErrShape, reported before
// any work.
func BetweennessCentrality(a *sparse.CSR[float64], sources []int, cfg core.Config) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: adjacency must be square, got %dx%d",
			sparse.ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	for _, src := range sources {
		if src < 0 || src >= n {
			return nil, fmt.Errorf("%w: source %d out of range [0,%d)", sparse.ErrShape, src, n)
		}
	}
	bc := make([]float64, n)
	if len(sources) == 0 {
		return bc, nil
	}
	p := min(sched.Workers(cfg.Workers), len(sources))
	states := make([]bcState, p)
	for w := range states {
		states[w] = newBCState(n)
	}
	var block []int
	run := func(w, _, _ int) { states[w].run(a, block[w]) }
	for lo := 0; lo < len(sources); lo += p {
		block = sources[lo:min(lo+p, len(sources))]
		if err := sched.BlocksE(cfg.Context, len(block), len(block), run); err != nil {
			return nil, core.WrapRunErr(err)
		}
		for w := range block {
			states[w].addTo(bc)
		}
	}
	return bc, nil
}

// bcState is one worker's Brandes state, reused for every source it
// runs: flat arrays indexed by vertex, and the vertices reached from the
// last source in BFS order. Only reached vertices are written, so a
// source resets what the previous one reached, not the whole graph.
type bcState struct {
	sigma, delta []float64 // shortest-path counts and dependencies
	level        []int32   // BFS depth from the source, -1 unreached
	// order holds the reached vertices level by level, each level
	// ascending; level d is order[ends[d-1]:ends[d]] (ends[-1] = 0).
	order []sparse.Index
	ends  []int32
}

// newBCState returns the state of an n-vertex graph in two allocations:
// every vertex is reached at most once per source, so order holds at
// most n vertices and ends at most n levels.
func newBCState(n int) bcState {
	f := make([]float64, 2*n)
	i := make([]int32, 3*n)
	st := bcState{sigma: f[:n:n], delta: f[n:], level: i[:n:n], order: i[n : n : 2*n], ends: i[2*n : 2*n : 3*n]}
	for v := range st.level {
		st.level[v] = -1
	}
	return st
}

// run computes the dependencies of every vertex reached from src. Each
// new level is sorted before it is expanded, so every sigma sum runs in
// ascending order of the previous level's vertices.
func (st *bcState) run(a *sparse.CSR[float64], src int) {
	sigma, delta, level := st.sigma, st.delta, st.level
	for _, v := range st.order {
		sigma[v], delta[v], level[v] = 0, 0, -1
	}
	order := append(st.order[:0], sparse.Index(src))
	ends := append(st.ends[:0], 1)
	sigma[src], level[src] = 1, 0
	for lo, d := 0, int32(1); ; d++ {
		hi := len(order)
		for _, u := range order[lo:hi] {
			su := sigma[u]
			for _, v := range a.RowCols(int(u)) {
				switch level[v] {
				case -1:
					level[v], sigma[v] = d, su
					order = append(order, v)
				case d:
					sigma[v] += su
				}
			}
		}
		if len(order) == hi {
			break
		}
		slices.Sort(order[hi:])
		ends = append(ends, int32(len(order)))
		lo = hi
	}
	st.order, st.ends = order, ends

	// Backward sweep: the vertices of level d-1 collect from their
	// successors on level d, deepest level first.
	for d := len(ends) - 1; d >= 1; d-- {
		lo := int32(0)
		if d >= 2 {
			lo = ends[d-2]
		}
		for _, u := range order[lo:ends[d-1]] {
			var dep float64
			for _, v := range a.RowCols(int(u)) {
				if level[v] == int32(d) {
					dep += sigma[u] / sigma[v] * (1 + delta[v])
				}
			}
			delta[u] = dep
		}
	}
}

// addTo adds the last source's dependencies into bc: every reached
// vertex's but the source's own.
func (st *bcState) addTo(bc []float64) {
	for _, v := range st.order[1:] {
		bc[v] += st.delta[v]
	}
}
