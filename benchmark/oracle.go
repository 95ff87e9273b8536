package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"maskedspgemm/spgemm"
)

// This file is the engine-independent reference every op is checked
// against. Nothing here multiplies matrices: triangles and edge support
// come from sorted-adjacency intersections, betweenness from Brandes'
// BFS, the solve residual from the graph's own lower neighbours. The
// reference answers are computed once per set-up; the timed ops are then
// compared against them by value or checksum outside the timed interval.

// adjacency is a graph's sorted neighbour lists, copied out of the
// facade matrix row by row.
type adjacency struct {
	ptr []int64
	idx []int32
}

func adjacencyOf(m *spgemm.Matrix) adjacency {
	a := adjacency{ptr: make([]int64, m.Rows()+1), idx: make([]int32, 0, m.NNZ())}
	for i := 0; i < m.Rows(); i++ {
		cols, _ := m.Row(i)
		a.idx = append(a.idx, cols...)
		a.ptr[i+1] = int64(len(a.idx))
	}
	return a
}

func (a adjacency) n() int            { return len(a.ptr) - 1 }
func (a adjacency) row(i int) []int32 { return a.idx[a.ptr[i]:a.ptr[i+1]] }

// above returns the suffix of a sorted row with entries > v.
func above(row []int32, v int) []int32 {
	return row[sort.Search(len(row), func(k int) bool { return int(row[k]) > v }):]
}

// intersectCount merges two sorted lists and counts common entries.
func intersectCount(x, y []int32) int {
	c, i, j := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// parallelBlocks runs body over [0, n) in blocks claimed from a shared
// counter by GOMAXPROCS goroutines, and returns when all are done. The
// oracle is set-up work; spreading it over the cores keeps setup_s from
// being dominated by the reference answers.
func parallelBlocks(n int, body func(lo, hi int)) {
	const block = 64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(block)) - block
				if lo >= n {
					return
				}
				body(lo, min(lo+block, n))
			}
		}()
	}
	wg.Wait()
}

// oracleTriangles counts each triangle u < v < w once: for every edge
// (u, v) it intersects the neighbours of u and of v that lie above v.
func oracleTriangles(a adjacency) int64 {
	var total atomic.Int64
	parallelBlocks(a.n(), func(lo, hi int) {
		var c int64
		for u := lo; u < hi; u++ {
			up := above(a.row(u), u)
			for k, v := range up {
				c += int64(intersectCount(up[k+1:], above(a.row(int(v)), int(v))))
			}
		}
		total.Add(c)
	})
	return total.Load()
}

// pruneStep is one support-and-prune round of the k-truss definition:
// it counts, for every edge of g, the triangles of g the edge lies in,
// and returns g without the edges whose count is below need, together
// with the number of directed entries it dropped.
func pruneStep(g adjacency, need int) (adjacency, int64) {
	keep := make([]bool, len(g.idx))
	parallelBlocks(g.n(), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			ru := g.row(u)
			for k, v := range ru {
				if int(v) <= u {
					continue
				}
				rv := g.row(int(v))
				if intersectCount(ru, rv) < need {
					continue
				}
				// Each undirected edge is decided once, here, and both of
				// its directed entries are written by this goroutine alone.
				keep[g.ptr[u]+int64(k)] = true
				back := sort.Search(len(rv), func(q int) bool { return int(rv[q]) >= u })
				keep[g.ptr[v]+int64(back)] = true
			}
		}
	})
	out := adjacency{ptr: make([]int64, len(g.ptr))}
	for u := 0; u < g.n(); u++ {
		for p := g.ptr[u]; p < g.ptr[u+1]; p++ {
			if keep[p] {
				out.idx = append(out.idx, g.idx[p])
			}
		}
		out.ptr[u+1] = int64(len(out.idx))
	}
	return out, int64(len(g.idx) - len(out.idx))
}

// oracleKTruss peels a down to its k-truss by repeating pruneStep until
// nothing is dropped; the fixed point is the maximal subgraph in which
// every edge lies in at least k-2 triangles.
func oracleKTruss(a adjacency, k int) adjacency {
	for {
		next, dropped := pruneStep(a, k-2)
		if dropped == 0 {
			return a
		}
		a = next
	}
}

// isSubgraph reports whether every edge of sub is an edge of a.
func isSubgraph(sub, a adjacency) bool {
	if sub.n() != a.n() {
		return false
	}
	for u := 0; u < a.n(); u++ {
		if intersectCount(sub.row(u), a.row(u)) != len(sub.row(u)) {
			return false
		}
	}
	return true
}

// checkKTruss is the full k-truss verification of one result: a subgraph
// of the input, a fixed point of the oracle's own prune step, and as
// large as the oracle's own peel — which together make it the k-truss.
func checkKTruss(result *spgemm.Matrix, a, want adjacency, k int) error {
	got := adjacencyOf(result)
	if !isSubgraph(got, a) {
		return fmt.Errorf("k-truss result is not a subgraph of its input")
	}
	if _, dropped := pruneStep(got, k-2); dropped != 0 {
		return fmt.Errorf("k-truss result is not a fixed point: oracle prunes %d more entries", dropped)
	}
	if len(got.idx) != len(want.idx) {
		return fmt.Errorf("k-truss result has %d entries, oracle peel has %d", len(got.idx), len(want.idx))
	}
	return nil
}

// oracleBC is Brandes' algorithm on the unweighted graph for the given
// sources: one BFS per source for shortest-path counts, one reverse
// sweep for the dependencies. The scores are unnormalised and exclude
// each source's own dependency, as the facade documents.
func oracleBC(a adjacency, sources []int) []float64 {
	n := a.n()
	bc := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	order := make([]int32, 0, n)
	for _, s := range sources {
		for i := range dist {
			dist[i], sigma[i], delta[i] = -1, 0, 0
		}
		order = append(order[:0], int32(s))
		dist[s], sigma[s] = 0, 1
		for head := 0; head < len(order); head++ {
			u := order[head]
			for _, v := range a.row(int(u)) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					order = append(order, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		for k := len(order) - 1; k > 0; k-- {
			w := order[k]
			for _, v := range a.row(int(w)) {
				if dist[v] == dist[w]-1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			bc[w] += delta[w]
		}
	}
	return bc
}

// checkBC compares a betweenness vector against the oracle's to a
// relative 1e-9 (absolute below 1, where scores of leaves sit).
func checkBC(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("betweenness has %d scores, want %d", len(got), len(want))
	}
	for v := range want {
		if d := math.Abs(got[v] - want[v]); !(d <= 1e-9*math.Max(1, math.Abs(want[v]))) {
			return fmt.Errorf("betweenness of vertex %d is %g, oracle says %g", v, got[v], want[v])
		}
	}
	return nil
}

// checkResidual verifies one solve of L·x = b with L = tril(A) + D,
// D = 1 + the number of lower neighbours, straight from the adjacency:
// ‖L·x − b‖∞ must be within 1e-12 of ‖b‖∞.
func checkResidual(a adjacency, x, b []float64) error {
	var worst, scale float64
	for i := 0; i < a.n(); i++ {
		lower := 0
		r := -b[i]
		for _, j := range a.row(i) {
			if int(j) >= i {
				break
			}
			r += x[j]
			lower++
		}
		r += float64(1+lower) * x[i]
		worst = math.Max(worst, math.Abs(r))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	if !(worst <= 1e-12*scale) {
		return fmt.Errorf("solve residual %g exceeds 1e-12 of ‖b‖∞ = %g", worst, scale)
	}
	return nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvWord(h, w uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = (h ^ (w >> s & 0xff)) * fnvPrime
	}
	return h
}

// hashVector folds the exact bit patterns of x into one word, so two
// vectors hash equal only if they are bit-identical.
func hashVector(x []float64) uint64 {
	h := uint64(fnvOffset)
	for _, v := range x {
		h = fnvWord(h, math.Float64bits(v))
	}
	return h
}

// hashUnitMatrix is hashMatrix of the square matrix with a's structure
// and every value 1.
func hashUnitMatrix(a adjacency) uint64 {
	h := fnvWord(fnvOffset, uint64(a.n())<<32|uint64(a.n()))
	one := math.Float64bits(1)
	for i := 0; i < a.n(); i++ {
		h = fnvWord(h, uint64(len(a.row(i))))
		for _, j := range a.row(i) {
			h = fnvWord(fnvWord(h, uint64(j)), one)
		}
	}
	return h
}

// hashMatrix folds shape, structure and values of m into one word.
func hashMatrix(m *spgemm.Matrix) uint64 {
	h := fnvWord(fnvOffset, uint64(m.Rows())<<32|uint64(m.Cols()))
	for i := 0; i < m.Rows(); i++ {
		cols, vals := m.Row(i)
		h = fnvWord(h, uint64(len(cols)))
		for k, j := range cols {
			h = fnvWord(fnvWord(h, uint64(j)), math.Float64bits(vals[k]))
		}
	}
	return h
}
