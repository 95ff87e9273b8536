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
// kernel's work. It reads one triangle of a, so it checks a's symmetry
// first (one pass over a): an asymmetric a is ErrInvalidMatrix.
func TriangleCountLL(a *Matrix, opts Options) (int64, error) {
	return graph.TriangleCount(a.csr, graph.SandiaLL, opts.config())
}

// KTruss computes the k-truss subgraph of a: the maximal subgraph whose
// every edge lies in at least k-2 triangles. It returns the truss
// adjacency and the number of prune rounds. From the second round on, a
// round predicted to cost less than a product of the whole surviving
// graph updates the last round's support by the triangles the removed
// edges took with them instead; the truss and the round count are the
// full products'. A round that multiplies thresholds the per-edge
// support inside the product's gather, so the support of the edges it
// drops is never materialized.
//
// a must be symmetric, as an undirected graph's adjacency is. A
// non-symmetric a is detected (once per call) and multiplies its
// directed pattern every round, returning that iteration's fixed point,
// which is not the truss of any undirected graph.
func KTruss(a *Matrix, k int, opts Options) (*Matrix, int, error) {
	res, err := graph.KTruss(a.csr, k, opts.config())
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

// BetweennessCentralityBatch is BetweennessCentrality computed for all
// sources simultaneously as rectangular masked matrix products — the
// batched-Brandes formulation, directed graphs included (paths follow
// entry (i, j) from i to j). Each level multiplies only its frontier's
// submatrix, so it costs the front, not the whole graph. The backward
// sweep streams each dependency row straight into the delta vector
// instead of assembling a per-level matrix.
func BetweennessCentralityBatch(a *Matrix, sources []int, opts Options) ([]float64, error) {
	return graph.BetweennessCentralityBatch(a.csr, sources, opts.config())
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
