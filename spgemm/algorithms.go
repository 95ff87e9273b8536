package spgemm

import (
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/graphgen"
)

// TriangleCount counts triangles in the undirected simple graph a once
// each with L ⊙ (L×L), L the strictly lower triangle of a read in place
// (Milaković et al.); a's diagonal is ignored. An asymmetric a is
// ErrInvalidMatrix, checked once per Matrix and never for one built by
// FromEdges or Symmetrize.
func TriangleCount(a *Matrix, opts Options) (int64, error) {
	return graph.TriangleCount(a.csr, &a.sym, opts.config())
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
// returns per-vertex hop levels (-1 = unreachable). Paths follow entry
// (i, j) from i to j. A pull step reads a's rows as in-neighbourhoods,
// so it is taken only on a symmetric a, and on a directed graph every
// level pushes. a's symmetry is checked at the first level that would
// pull, once per Matrix, and never for one built by FromEdges or
// Symmetrize.
func BFS(a *Matrix, src int) ([]int32, error) {
	res, err := graph.BFS(a.csr, &a.sym, src, graph.Auto)
	if err != nil {
		return nil, err
	}
	return res.Level, nil
}

// BetweennessCentralityBatch returns the unnormalized betweenness
// contributions from the given source vertices (all vertices = exact
// BC) with Brandes' algorithm, one source at a time: a BFS over a's rows
// that counts shortest paths, then the backward dependency sweep. Paths
// follow entry (i, j) from i to j, so directed graphs are supported;
// a's pattern is read, its values are not. The sources are split across
// opts.Workers, and the scores are bit-identical at every worker count.
// Only opts.Workers and opts.Context apply: BC multiplies no matrices,
// so Engine, Stats and Fuse have no effect on it. A source outside
// [0, n) is ErrShape.
func BetweennessCentralityBatch(a *Matrix, sources []int, opts Options) ([]float64, error) {
	return graph.BetweennessCentrality(a.csr, sources, opts.config())
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
