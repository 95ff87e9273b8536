// Package graph builds the graph-analytics workloads that motivate the
// masked-SpGEMM kernel (paper §I): triangle counting — the paper's
// benchmark — plus k-truss, breadth-first search, and betweenness
// centrality, all expressed over the kernels in internal/core.
package graph

import (
	"fmt"
	"sync/atomic"

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
// the chosen formulation and kernel configuration. The product's rows
// are summed as they are gathered; C is never assembled.
//
// SandiaLL and Cohen read one triangle of a each, so a directed a could
// get a count and no error; they check a's symmetry first (one pass
// over a), and an asymmetric a is ErrInvalidMatrix. Burkhardt reports
// ErrInvalidMatrix when its count is not a multiple of 6.
func TriangleCount(a *sparse.CSR[float64], method TriangleMethod, cfg core.Config) (int64, error) {
	if (method == SandiaLL || method == Cohen) && !sparse.IsSymmetric(a) {
		return 0, fmt.Errorf("%w: asymmetric adjacency (is the graph symmetric and simple?)", core.ErrInvalidMatrix)
	}
	m, x, y, div := a, a, a, int64(6)
	switch method {
	case Burkhardt:
	case SandiaLL:
		l := sparse.Tril(a)
		m, x, y, div = l, l, l, 1
	case Cohen:
		x, y, div = sparse.Tril(a), sparse.Triu(a), 2
	default:
		return 0, fmt.Errorf("%w: unknown triangle method %d", core.ErrConfig, method)
	}
	var t triangleTally
	if err := core.MaskedSpGEMMStream[float64](semiring.PlusPair[float64]{}, m, x, y, cfg, t.row); err != nil {
		return 0, err
	}
	total := t.total.Load()
	if total%div != 0 {
		return 0, fmt.Errorf("%w: non-integral triangle count %v/%v (is the graph symmetric and simple?)", core.ErrInvalidMatrix, total, div)
	}
	return total / div, nil
}

// triangleTally sums a PlusPair product's rows (integer counts) with
// one atomic add per nonempty row.
type triangleTally struct{ total atomic.Int64 }

//spgemm:hotpath
func (t *triangleTally) row(_ int, _ []sparse.Index, vals []float64) {
	var s int64
	for _, v := range vals {
		s += int64(v)
	}
	t.total.Add(s)
}
