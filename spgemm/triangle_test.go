package spgemm

import (
	"errors"
	"sync"
	"testing"

	"maskedspgemm/internal/sparse"
)

// mustEdges is FromEdges for a valid edge list.
func mustEdges(t *testing.T, n int, edges [][2]int) *Matrix {
	t.Helper()
	m, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTriangleCountSharesEngine runs the PlusPair product A ⊙ (A×A),
// whose sum over 6 is the triangle count, and the facade's lower-view
// count alternately on one engine and one
// header, each on the plan it cached under the same operand identity
// (the view's under a key of its own, with its row-kernel verdict).
// Then the header is refilled in place with a different structure of
// equal rows, cols and nnz, which the plan keys cannot tell from the
// first: both counts must follow the new structure, the view's under a
// verdict priced on the old one.
func TestTriangleCountSharesEngine(t *testing.T) {
	// A 190-cycle and K20 plus 170 isolated vertices: 190 edges each, no
	// triangle against 1140, rows of two entries against rows of 19.
	cycle := make([][2]int, 190)
	for i := range cycle {
		cycle[i] = [2]int{i, (i + 1) % 190}
	}
	var clique [][2]int
	for i := range 20 {
		for j := i + 1; j < 20; j++ {
			clique = append(clique, [2]int{i, j})
		}
	}
	a, k20 := mustEdges(t, 190, cycle), mustEdges(t, 190, clique)
	opts := Defaults()
	opts.Workers = 2
	opts.Engine = NewEngine(EngineConfig{})
	full := opts
	full.Semiring = SRPlusPair
	counts := func(want int64) {
		t.Helper()
		for range 2 {
			c, err := MxM(a, a, a, full)
			if err != nil || sparse.SumValues(c.csr) != float64(6*want) {
				t.Fatalf("A ⊙ (A×A): sum %v, %v; want %d", sparse.SumValues(c.csr), err, 6*want)
			}
			view, err := TriangleCount(a, opts)
			if err != nil || view != want {
				t.Fatalf("L ⊙ (L×L): %d, %v; want %d", view, err, want)
			}
		}
	}
	counts(0)
	copy(a.csr.RowPtr, k20.csr.RowPtr)
	copy(a.csr.ColIdx, k20.csr.ColIdx)
	counts(1140)
	if st := opts.Engine.Stats(); st.PlanMisses != 2 || st.PlanHits == 0 {
		t.Errorf("plan cache: %d misses, %d hits; want each product's counts after its first on its one plan", st.PlanMisses, st.PlanHits)
	}
}

// TestSymmetryKnownByConstruction: a matrix from FromEdges or
// Symmetrize().Pattern() is symmetric by construction and is never
// checked. Each is made asymmetric behind the facade's back (row 0's
// entry moved from column 1 to column 2 of a path 0–1–2), which a check
// would report as ErrInvalidMatrix.
func TestSymmetryKnownByConstruction(t *testing.T) {
	path := [][2]int{{0, 1}, {1, 2}}
	triples, err := FromTriples(3, 3, []Triple{{Row: 0, Col: 1, Val: 1}, {Row: 2, Col: 1, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Matrix{
		"FromEdges":            mustEdges(t, 3, path),
		"Symmetrize().Pattern": triples.Symmetrize().Pattern(),
	} {
		m.csr.ColIdx[0] = 2
		if n, err := TriangleCount(m, Defaults()); err != nil || n != 0 {
			t.Errorf("%s: %d, %v; want 0 and no check", name, n, err)
		}
	}
}

// TestSymmetryCheckedOnce: an asymmetric FromTriples matrix is
// ErrInvalidMatrix on its first count and on every later one, and BFS
// still searches it, pushing every level. The answer is remembered: made
// symmetric behind the facade's back after the first count (entries
// (0, 1), (1, 0) and (2, 2)), the matrix is still refused.
func TestSymmetryCheckedOnce(t *testing.T) {
	directed, err := FromTriples(3, 3, []Triple{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 2, Val: 1}, {Row: 0, Col: 2, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if level, err := BFS(directed, 0); err != nil || level[1] != 1 || level[2] != 1 {
		t.Fatalf("BFS levels %v, %v; want [0 1 1]", level, err)
	}
	for call := range 3 {
		if n, err := TriangleCount(directed, Defaults()); n != 0 || !errors.Is(err, ErrInvalidMatrix) {
			t.Fatalf("call %d: %d, %v; want 0, ErrInvalidMatrix", call, n, err)
		}
		copy(directed.csr.RowPtr, []int64{0, 1, 2, 3})
		copy(directed.csr.ColIdx, []sparse.Index{1, 0, 2})
	}
}

// TestSymmetryConcurrentFirstCalls races the first questions about one
// matrix's symmetry: counts and searches that start together on a
// FromTriples matrix, whose symmetry nobody knows yet, all succeed and
// agree. Run under -race (make race).
func TestSymmetryConcurrentFirstCalls(t *testing.T) {
	g := RandomGraph("rmat", 1<<9, 4)
	want, err := TriangleCount(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var entries []Triple
	for i := range g.Rows() {
		cols, vals := g.Row(i)
		for p, j := range cols {
			entries = append(entries, Triple{Row: i, Col: int(j), Val: vals[p]})
		}
	}
	m, err := FromTriples(g.Rows(), g.Cols(), entries)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				if n, err := TriangleCount(m, Defaults()); err != nil || n != want {
					errs[w] = errors.Join(err, errors.New("wrong count"))
				}
			} else if _, err := BFS(m, w); err != nil {
				errs[w] = err
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", w, err)
		}
	}
}
