// Package graph builds the graph-analytics workloads that motivate the
// masked-SpGEMM kernel (paper §I): triangle counting — the paper's
// benchmark — plus k-truss, breadth-first search, and betweenness
// centrality, all expressed over the kernels in internal/core.
package graph

import (
	"fmt"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// TriangleMethod selects a linear-algebraic triangle-counting
// formulation (Azad et al., the paper's reference [9]/[20]).
type TriangleMethod int

const (
	// Burkhardt computes C = A ⊙ (A×A) and divides the sum by 6 — the
	// exact kernel the paper benchmarks (§IV-A: "we fix the matrix A and
	// compute C = A ⊙ (A×A), the main kernel used in triangle counting").
	Burkhardt TriangleMethod = iota
	// SandiaLL computes C = L ⊙ (L×L) over the strictly lower triangle;
	// each triangle is counted exactly once.
	SandiaLL
	// Cohen computes C = A ⊙ (L×U) and divides the sum by 2.
	Cohen
)

func (m TriangleMethod) String() string {
	switch m {
	case Burkhardt:
		return "Burkhardt"
	case SandiaLL:
		return "SandiaLL"
	case Cohen:
		return "Cohen"
	default:
		return "Unknown"
	}
}

// TriangleCount counts triangles in the undirected simple graph whose
// adjacency matrix is a (symmetric, zero diagonal, unit values), using
// the chosen formulation and kernel configuration.
func TriangleCount(
	a *sparse.CSR[float64], method TriangleMethod, cfg core.Config,
) (int64, error) {
	sr := semiring.PlusPair[float64]{}
	var c *sparse.CSR[float64]
	var err error
	var div float64 = 1
	switch method {
	case Burkhardt:
		c, err = core.MaskedSpGEMM[float64](sr, a, a, a, cfg)
		div = 6
	case SandiaLL:
		l := sparse.Tril(a)
		c, err = core.MaskedSpGEMM[float64](sr, l, l, l, cfg)
	case Cohen:
		l, u := sparse.Tril(a), sparse.Triu(a)
		c, err = core.MaskedSpGEMM[float64](sr, a, l, u, cfg)
		div = 2
	default:
		return 0, fmt.Errorf("%w: unknown triangle method %d", core.ErrConfig, method)
	}
	if err != nil {
		return 0, err
	}
	total := sparse.SumValues(c)
	count := total / div
	if count != float64(int64(count)) {
		return 0, fmt.Errorf("%w: non-integral triangle count %v/%v (is the graph symmetric and simple?)", core.ErrInvalidMatrix, total, div)
	}
	return int64(count), nil
}

// TriangleSupport returns S = A ⊙ (A×A): for every edge, the number of
// triangles it participates in. This is the inner kernel of k-truss.
func TriangleSupport(a *sparse.CSR[float64], cfg core.Config) (*sparse.CSR[float64], error) {
	return core.MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, a, a, a, cfg)
}
