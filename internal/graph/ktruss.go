package graph

import (
	"fmt"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// KTrussResult reports the outcome of a k-truss computation.
type KTrussResult struct {
	// Truss is the adjacency matrix of the k-truss subgraph: the maximal
	// subgraph in which every edge lies in at least k-2 triangles. It
	// never shares storage with the input, and its arrays hold at most
	// twice its entries.
	Truss *sparse.CSR[float64]
	// Rounds is the number of support-and-prune iterations executed.
	Rounds int
	// Edges is the number of undirected edges remaining (nnz/2).
	Edges int64
}

// KTruss computes the k-truss of the undirected simple graph a using the
// linear-algebraic formulation (paper references [12]–[14]): iterate
// S = A ⊙ (A×A) (per-edge triangle support via the masked SpGEMM), drop
// edges with support < k-2, and repeat until no edge is dropped. Each
// round's support matrix is pruned in place into the next graph.
func KTruss(a *sparse.CSR[float64], k int, cfg core.Config) (*KTrussResult, error) {
	return peel(a, k, false, cfg)
}

// KTrussFused computes the same k-truss as KTruss through the fused
// select pipeline: each round runs threshold(A ⊙ (A×A)) as one
// core.MaskedSpGEMMSelectInto call, so the per-edge support matrix is
// never materialized — entries below the support threshold are dropped
// inside the tile gather and surviving edges are rewritten to 1 in
// place. The result is identical to KTruss round for round; only the
// staging differs.
func KTrussFused(a *sparse.CSR[float64], k int, cfg core.Config) (*KTrussResult, error) {
	return peel(a, k, true, cfg)
}

// peel runs k-truss rounds on a, staged (support, then prune) or fused,
// until one keeps every edge or none. The input is never written and
// the rounds' results shrink, so from the third round on two buffers
// take turns: the one the last round read becomes the next round's
// destination. When the first round keeps every edge its result, given
// a's values, is the truss, so the result never aliases a; a truss much
// smaller than the buffer it ends in is copied out (fit).
//
// The first round multiplies a header of its own over a's arrays, so,
// like every later round, it is a new operand to an engine's plan
// cache: a k-truss call plans each of its rounds, and no call reuses
// a plan keyed on the caller's matrix.
func peel(a *sparse.CSR[float64], k int, fused bool, cfg core.Config) (*KTrussResult, error) {
	if k < 3 {
		return nil, fmt.Errorf("%w: k-truss needs k >= 3, got %d", core.ErrConfig, k)
	}
	sr := semiring.PlusPair[float64]{}
	need := float64(k - 2)
	var keep func(float64) (float64, bool)
	if fused && k < len(supportSelectors) {
		keep = supportSelectors[k]
	} else if fused {
		keep = atLeast(need)
	}
	in := *a
	cur := &in
	var spare *sparse.CSR[float64]
	for rounds := 1; ; rounds++ {
		var next *sparse.CSR[float64]
		var err error
		if fused {
			next, err = core.MaskedSpGEMMSelectInto[float64](sr, spare, cur, cur, cur, cfg, keep)
		} else if next, err = core.MaskedSpGEMMInto[float64](sr, spare, cur, cur, cur, cfg); err == nil {
			prune(next, need)
		}
		if err != nil {
			return nil, err
		}
		kept := next.NNZ()
		if kept == cur.NNZ() {
			if cur == &in {
				// next kept all of a's pattern: it takes a's values.
				copy(next.Val, a.Val)
				cur = next
			}
			return &KTrussResult{Truss: fit(cur), Rounds: rounds, Edges: kept / 2}, nil
		}
		if kept == 0 {
			return &KTrussResult{Truss: fit(next), Rounds: rounds, Edges: 0}, nil
		}
		if cur != &in {
			spare = cur
		}
		cur = next
	}
}

// supportSelectors[k] is atLeast(k-2) for 3 <= k < 64, built once so a
// fused call allocates no more than a staged one.
var supportSelectors = func() (s [64]func(float64) (float64, bool)) {
	for k := 3; k < len(s); k++ {
		s[k] = atLeast(float64(k - 2))
	}
	return s
}()

// atLeast is the fused round's selector: keep an edge in at least need
// triangles, rewritten to 1.
func atLeast(need float64) func(float64) (float64, bool) {
	return func(v float64) (float64, bool) { return 1, v >= need }
}

// fit copies c's column and value arrays into right-sized ones when
// they hold more than twice c's entries, so a small truss does not keep
// an early round's storage reachable.
func fit(c *sparse.CSR[float64]) *sparse.CSR[float64] {
	n := c.NNZ()
	if int64(cap(c.ColIdx)) > 2*n || int64(cap(c.Val)) > 2*n {
		c.ColIdx = append(make([]sparse.Index, 0, n), c.ColIdx[:n]...)
		c.Val = append(make([]float64, 0, n), c.Val[:n]...)
	}
	return c
}

// prune keeps the entries of the support matrix s that reach need,
// rewritten to 1, compacting s in place into the next round's adjacency.
func prune(s *sparse.CSR[float64], need float64) {
	var w, lo int64
	for i := 0; i < s.Rows; i++ {
		hi := s.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			if s.Val[p] >= need {
				s.ColIdx[w] = s.ColIdx[p]
				s.Val[w] = 1
				w++
			}
		}
		s.RowPtr[i+1] = w
		lo = hi
	}
	s.ColIdx = s.ColIdx[:w]
	s.Val = s.Val[:w]
}
