package spgemm

import (
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/graphgen"
)

// TriangleCount counts triangles in the undirected simple graph a using
// the paper's benchmark kernel C = A ⊙ (A×A).
func TriangleCount(a *Matrix, opts Options) (int64, error) {
	return graph.TriangleCount(a.csr, graph.Burkhardt, opts.config())
}

// TriangleCountLL counts triangles with the lower-triangular
// formulation C = L ⊙ (L×L), which does one sixth of the Burkhardt
// kernel's work.
func TriangleCountLL(a *Matrix, opts Options) (int64, error) {
	return graph.TriangleCount(a.csr, graph.SandiaLL, opts.config())
}

// KTruss computes the k-truss subgraph of a: the maximal subgraph whose
// every edge lies in at least k-2 triangles. It returns the truss
// adjacency and the number of prune rounds. With Options.Fuse set, each
// support-and-prune round runs as one fused select multiply — the
// per-edge support matrix is thresholded inside the tile gather and
// never materialized; the result is identical.
func KTruss(a *Matrix, k int, opts Options) (*Matrix, int, error) {
	run := graph.KTruss
	if opts.Fuse {
		run = graph.KTrussFused
	}
	res, err := run(a.csr, k, opts.config())
	if err != nil {
		return nil, 0, err
	}
	return wrap(res.Truss), res.Rounds, nil
}

// BFS runs a direction-optimizing breadth-first search from src and
// returns per-vertex hop levels (-1 = unreachable).
func BFS(a *Matrix, src int) ([]int32, error) {
	res, err := graph.BFS(a.csr, src, core.Auto, nil)
	if err != nil {
		return nil, err
	}
	return res.Level, nil
}

// BetweennessCentrality returns the unnormalized betweenness
// contributions from the given source vertices (all vertices = exact BC).
func BetweennessCentrality(a *Matrix, sources []int) ([]float64, error) {
	return graph.BetweennessCentrality(a.csr, sources, nil)
}

// KCore returns each vertex's coreness (the largest k whose k-core
// contains it) and the graph's degeneracy.
func KCore(a *Matrix) ([]int32, int32, error) {
	res, err := graph.KCore(a.csr)
	if err != nil {
		return nil, 0, err
	}
	return res.Core, res.MaxCore, nil
}

// BetweennessCentralityBatch is BetweennessCentrality computed for all
// sources simultaneously as rectangular masked matrix products — the
// batched-Brandes formulation, directed graphs included (paths follow
// entry (i, j) from i to j). Each level multiplies only its frontier's
// submatrix, so it costs the front, not the whole graph. With
// Options.Fuse set, the backward sweep streams each dependency row
// straight into the delta vector instead of assembling a per-level CSR;
// the result is identical.
func BetweennessCentralityBatch(a *Matrix, sources []int, opts Options) ([]float64, error) {
	if opts.Fuse {
		return graph.BetweennessCentralityBatchFused(a.csr, sources, opts.config())
	}
	return graph.BetweennessCentralityBatch(a.csr, sources, opts.config())
}

// ConnectedComponents returns per-vertex component labels (the smallest
// vertex id in each component) and the component count, computed by
// algebraic label propagation over the (min, first) semiring.
func ConnectedComponents(a *Matrix) ([]int32, int, error) {
	res, err := graph.ConnectedComponentsLabelProp(a.csr, nil)
	if err != nil {
		return nil, 0, err
	}
	return res.Label, res.Components, nil
}

// ShortestPaths returns single-source shortest-path distances over the
// stored edge weights (tropical-semiring Bellman-Ford); +Inf marks
// unreachable vertices.
func ShortestPaths(a *Matrix, src int) ([]float64, error) {
	return graph.SSSP(a.csr, src, nil)
}

// PageRank runs the damped power iteration until the L1 delta falls
// below tol (or maxIter rounds) and returns the stationary ranks.
func PageRank(a *Matrix, damping, tol float64, maxIter int) ([]float64, error) {
	res, err := graph.PageRank(a.csr, damping, tol, maxIter)
	if err != nil {
		return nil, err
	}
	return res.Rank, nil
}

// RandomGraph generates one of the built-in synthetic graph families;
// kind is "rmat", "road", "web", "circuit" or "er". It exists so
// examples and downstream users can produce benchmark-shaped inputs
// without external data.
func RandomGraph(kind string, n int, seed uint64) *Matrix {
	switch kind {
	case "rmat":
		scale := 4
		for 1<<scale < n {
			scale++
		}
		return wrap(graphgen.RMAT(scale, 8, 0.57, 0.19, 0.19, seed))
	case "road":
		side := 4
		for side*side < n {
			side++
		}
		return wrap(graphgen.RoadNetwork(side, side, 0.95, seed))
	case "web":
		return wrap(graphgen.WebGraph(n, 8, 0.5, seed))
	case "circuit":
		return wrap(graphgen.Circuit(n, 3, 0.6, 2, max(n/50, 4), seed))
	default:
		return wrap(graphgen.ErdosRenyi(n, 4*n, seed))
	}
}
