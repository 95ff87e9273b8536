// Package graph builds the graph-analytics workloads that motivate the
// masked-SpGEMM kernel (paper §I): triangle counting — the paper's
// benchmark — plus k-truss and breadth-first search, expressed over the
// kernels in internal/core, and betweenness centrality, Brandes'
// algorithm per source on flat state of its own.
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
	// SandiaLL computes C = L ⊙ (L×L) over the strictly lower triangle,
	// read in place from A's rows; each triangle is counted exactly once.
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
// adjacency matrix is a (symmetric, unit values), using the chosen
// formulation and kernel configuration. The product's rows are summed as
// they are gathered; C is never assembled. SandiaLL reads L as a view of
// a (core.MaskedSpGEMMStreamLower), so it builds nothing and ignores
// a's diagonal.
//
// SandiaLL and Cohen read one triangle of a each, so a directed a could
// get a count and no error; they check a's symmetry first (one pass
// over a), and an asymmetric a is ErrInvalidMatrix. Burkhardt reports
// ErrInvalidMatrix when its count is not a multiple of 6.
func TriangleCount(a *sparse.CSR[float64], method TriangleMethod, cfg core.Config) (int64, error) {
	return TriangleCountWith(a, nil, method, cfg)
}

// TriangleCountWith is TriangleCount reading a's symmetry from sym,
// which remembers it across calls (nil: checked in this call).
func TriangleCountWith(a *sparse.CSR[float64], sym *Symmetry, method TriangleMethod, cfg core.Config) (int64, error) {
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("%w: adjacency must be square, got %dx%d", sparse.ErrShape, a.Rows, a.Cols)
	}
	if (method == SandiaLL || method == Cohen) && !sym.Of(a) {
		return 0, fmt.Errorf("%w: asymmetric adjacency (is the graph symmetric and simple?)", core.ErrInvalidMatrix)
	}
	sr, div := semiring.PlusPair[float64]{}, int64(1)
	var t triangleTally
	var err error
	switch method {
	case Burkhardt:
		div = 6
		err = core.MaskedSpGEMMStream[float64](sr, a, a, a, cfg, t.row)
	case SandiaLL:
		err = core.MaskedSpGEMMStreamLower[float64](sr, a, cfg, t.row)
	case Cohen:
		div = 2
		err = core.MaskedSpGEMMStream[float64](sr, a, sparse.Tril(a), sparse.Triu(a), cfg, t.row)
	default:
		return 0, fmt.Errorf("%w: unknown triangle method %d", core.ErrConfig, method)
	}
	if err != nil {
		return 0, err
	}
	total := t.total.Load()
	if total%div != 0 {
		return 0, fmt.Errorf("%w: non-integral triangle count %v/%v (is the graph symmetric and simple?)", core.ErrInvalidMatrix, total, div)
	}
	return total / div, nil
}

// Symmetry remembers whether one matrix of fixed structure is symmetric:
// the first question checks (sparse.IsSymmetric), later ones read the
// answer, and a matrix symmetric by construction is Set, never checked.
// The zero value knows nothing; a nil *Symmetry remembers nothing.
// Concurrent first questions may each check and store the same answer.
type Symmetry struct {
	state atomic.Int32 // 0 unknown, 1 symmetric, -1 not
}

// Of reports whether a, the matrix s describes, is symmetric.
func (s *Symmetry) Of(a *sparse.CSR[float64]) bool {
	if s == nil {
		return sparse.IsSymmetric(a)
	}
	if st := s.state.Load(); st != 0 {
		return st > 0
	}
	sym := sparse.IsSymmetric(a)
	s.Set(sym)
	return sym
}

// Set records whether the matrix is symmetric.
func (s *Symmetry) Set(symmetric bool) {
	st := int32(-1)
	if symmetric {
		st = 1
	}
	s.state.Store(st)
}

// Inherit copies what from knows, for a matrix of from's structure.
func (s *Symmetry) Inherit(from *Symmetry) { s.state.Store(from.state.Load()) }

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
