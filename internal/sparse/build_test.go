package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestToCSRSumsDuplicatesInInputOrder pins the order duplicates sum in:
// the order they were added, whatever lies between them. In float64,
// (1e16 + 1) - 1e16 is 0 because 1e16 + 1 rounds to 1e16, while
// (1e16 - 1e16) + 1 is 1.
func TestToCSRSumsDuplicatesInInputOrder(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{1e16, 1, -1e16}, 0},
		{[]float64{1e16, -1e16, 1}, 1},
	} {
		coo := NewCOO[float64](3, 4, 0)
		for k, v := range tc.vals {
			coo.Add(2, 1, v)
			coo.Add(Index(k%2), Index(3-k), 5) // other positions in between
		}
		m := coo.ToCSR()
		if err := m.Check(); err != nil {
			t.Fatal(err)
		}
		if got := m.At(2, 1); got != tc.want || !m.Has(2, 1) {
			t.Errorf("%v summed to %v, want %v", tc.vals, got, tc.want)
		}
	}
}

// TestToCSRKeepsZeroSum: duplicates that cancel leave an explicit zero,
// which is still a stored entry.
func TestToCSRKeepsZeroSum(t *testing.T) {
	coo := NewCOO[float64](2, 2, 0)
	coo.Add(0, 1, 2)
	coo.Add(1, 0, 3)
	coo.Add(0, 1, -2)
	m := coo.ToCSR()
	if m.NNZ() != 2 || !m.Has(0, 1) || m.At(0, 1) != 0 || m.At(1, 0) != 3 {
		t.Fatalf("got RowPtr %v ColIdx %v Val %v, want (0,1)=0 stored and (1,0)=3", m.RowPtr, m.ColIdx, m.Val)
	}
}

// TestBuildersRightSized: ToCSR and Symmetrize allocate exactly nnz
// entries, although duplicates and merged halves make the result
// shorter than their input.
func TestBuildersRightSized(t *testing.T) {
	coo := NewCOO[float64](5, 5, 0)
	for _, e := range [][2]Index{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {3, 4}, {2, 2}, {4, 0}} {
		coo.Add(e[0], e[1], 1)
	}
	m := coo.ToCSR()
	s := Symmetrize(m)
	for name, x := range map[string]*CSR[float64]{"ToCSR": m, "Symmetrize": s} {
		if err := x.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := int(x.NNZ())
		if cap(x.ColIdx) != n || cap(x.Val) != n {
			t.Errorf("%s: nnz %d, cap(ColIdx) %d, cap(Val) %d", name, n, cap(x.ColIdx), cap(x.Val))
		}
	}
	if m.NNZ() != 5 || s.NNZ() != 7 {
		t.Errorf("nnz ToCSR %d Symmetrize %d, want 5 and 7", m.NNZ(), s.NNZ())
	}
}

// TestToCSRShapes: empty, 0 x 0, 0-column and rectangular COOs convert
// to valid matrices of their shape.
func TestToCSRShapes(t *testing.T) {
	for _, sh := range [][2]int{{0, 0}, {4, 0}, {0, 4}, {3, 7}, {7, 3}} {
		coo := NewCOO[float64](sh[0], sh[1], 0)
		if sh[0] > 0 && sh[1] > 0 {
			coo.Add(Index(sh[0]-1), 0, 1)
			coo.Add(0, Index(sh[1]-1), 2)
		}
		m := coo.ToCSR()
		if err := m.Check(); err != nil {
			t.Fatalf("%dx%d: %v", sh[0], sh[1], err)
		}
		if m.Rows != sh[0] || m.Cols != sh[1] || m.NNZ() != int64(len(coo.I)) {
			t.Errorf("%dx%d: got %dx%d with %d entries, want %d", sh[0], sh[1], m.Rows, m.Cols, m.NNZ(), len(coo.I))
		}
	}
}

// TestToCSRMatchesDefinition holds ToCSR to a reference built by
// definition: each position's value is the left-to-right sum of its
// triples in input order. Values span many magnitudes so a different
// order would show in the bits. The COO must come back unchanged.
func TestToCSRMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+r.Intn(30), 1+r.Intn(30)
		coo := NewCOO[float64](rows, cols, 0)
		want := map[[2]Index]float64{}
		for n := r.Intn(4 * rows * cols); n > 0; n-- {
			i, j := Index(r.Intn(rows)), Index(r.Intn(cols))
			v := (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(33)-16))
			coo.Add(i, j, v)
			if s, ok := want[[2]Index{i, j}]; ok {
				v = s + v
			}
			want[[2]Index{i, j}] = v
		}
		before := *coo
		before.I, before.J, before.V = slices.Clone(coo.I), slices.Clone(coo.J), slices.Clone(coo.V)
		m := coo.ToCSR()
		if err := m.Check(); err != nil {
			t.Fatal(err)
		}
		if m.NNZ() != int64(len(want)) {
			t.Fatalf("trial %d: nnz %d, want %d", trial, m.NNZ(), len(want))
		}
		for i := 0; i < m.Rows; i++ {
			cols, vals := m.Row(i)
			for k, j := range cols {
				if w := want[[2]Index{Index(i), j}]; math.Float64bits(vals[k]) != math.Float64bits(w) {
					t.Fatalf("trial %d: (%d,%d) = %v, want %v", trial, i, j, vals[k], w)
				}
			}
		}
		if !slices.Equal(coo.I, before.I) || !slices.Equal(coo.J, before.J) || !slices.Equal(coo.V, before.V) {
			t.Fatalf("trial %d: ToCSR changed its COO", trial)
		}
	}
}

// TestSymmetrizeMatchesDefinition holds Symmetrize to its definition:
// (i,j) stores A[i,j] + A[j,i] where either is stored, the diagonal
// once. A sum of two values has the same bits in either order, so this
// is also the value the former COO-and-sort construction produced. Odd
// trials take a symmetric pattern, whose rows equal their columns.
func TestSymmetrizeMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(25)
		coo := NewCOO[float64](n, n, 0)
		for k := r.Intn(n * n); k > 0; k-- {
			coo.Add(Index(r.Intn(n)), Index(r.Intn(n)), (r.Float64()-0.5)*math.Pow(10, float64(r.Intn(17)-8)))
		}
		a := coo.ToCSR()
		if trial%2 == 1 {
			// A symmetric pattern with unrelated values: every row meets
			// a column holding the same positions.
			a = Symmetrize(a)
			for k := range a.Val {
				a.Val[k] = r.Float64() - 0.5
			}
		}
		want := map[[2]Index]float64{}
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			for k, j := range cols {
				want[[2]Index{Index(i), j}] += vals[k]
				if int(j) != i {
					want[[2]Index{j, Index(i)}] += vals[k]
				}
			}
		}
		s := Symmetrize(a)
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
		if s.NNZ() != int64(len(want)) {
			t.Fatalf("trial %d: nnz %d, want %d", trial, s.NNZ(), len(want))
		}
		for i := 0; i < n; i++ {
			cols, vals := s.Row(i)
			for k, j := range cols {
				if w := want[[2]Index{Index(i), j}]; math.Float64bits(vals[k]) != math.Float64bits(w) {
					t.Fatalf("trial %d: (%d,%d) = %v, want %v", trial, i, j, vals[k], w)
				}
			}
		}
	}
}

// TestSymmetrizeRejectsNonSquare: the transpose of a non-square matrix
// has another shape, so there is nothing to merge with.
func TestSymmetrizeRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Symmetrize of a 2x3 matrix did not panic")
		}
	}()
	Symmetrize(NewCOO[float64](2, 3, 0).ToCSR())
}
