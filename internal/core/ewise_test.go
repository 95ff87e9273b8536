package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

func TestEWiseAddOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := r.Intn(20)+1, r.Intn(20)+1
		a := randMatrix(rows, cols, 0.3, r)
		b := randMatrix(rows, cols, 0.3, r)
		got, err := EWiseAdd[float64](semiring.PlusTimes[float64]{}, a, b)
		if err != nil || got.Check() != nil {
			return false
		}
		da, db, dg := sparse.ToDense(a), sparse.ToDense(b), sparse.ToDense(got)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if dg.At(i, j) != da.At(i, j)+db.At(i, j) {
					return false
				}
			}
		}
		// Union structure: nnz(out) = nnz(a) + nnz(b) - |intersection|.
		var inter int64
		for i := 0; i < rows; i++ {
			for _, j := range a.RowCols(i) {
				if b.Has(i, j) {
					inter++
				}
			}
		}
		return got.NNZ() == a.NNZ()+b.NNZ()-inter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEWiseAddEmptyRowRuns drives the whole-run copy: operands whose
// empty rows come in runs — leading, trailing, interleaved, overlapping
// and covering the whole matrix — must produce exactly what merging row
// by row produces, row pointers included, in fresh storage and in the
// reused storage of an earlier union (EWiseAddInto).
func TestEWiseAddEmptyRowRuns(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	// blank returns m with the rows of every [lo, hi) range emptied.
	blank := func(m *sparse.CSR[float64], ranges ...[2]int) *sparse.CSR[float64] {
		out := sparse.NewCSR[float64](m.Rows, m.Cols, 0)
		for i := 0; i < m.Rows; i++ {
			cols, vals := m.Row(i)
			for _, rg := range ranges {
				if i >= rg[0] && i < rg[1] {
					cols, vals = nil, nil
				}
			}
			out.AppendRow(i, cols, vals)
		}
		return out
	}
	// rowByRow is the reference: one sorted merge per row.
	rowByRow := func(a, b *sparse.CSR[float64]) *sparse.CSR[float64] {
		out := sparse.NewCSR[float64](a.Rows, a.Cols, 0)
		for i := 0; i < a.Rows; i++ {
			var cols []sparse.Index
			var vals []float64
			for j := 0; j < a.Cols; j++ {
				ja, jb := a.Has(i, sparse.Index(j)), b.Has(i, sparse.Index(j))
				switch {
				case ja && jb:
					cols, vals = append(cols, sparse.Index(j)), append(vals, sr.Plus(a.At(i, sparse.Index(j)), b.At(i, sparse.Index(j))))
				case ja:
					cols, vals = append(cols, sparse.Index(j)), append(vals, a.At(i, sparse.Index(j)))
				case jb:
					cols, vals = append(cols, sparse.Index(j)), append(vals, b.At(i, sparse.Index(j)))
				}
			}
			out.AppendRow(i, cols, vals)
		}
		return out
	}
	r := rand.New(rand.NewSource(17))
	const rows = 40
	fullA := randMatrix(rows, 12, 0.4, r)
	fullB := randMatrix(rows, 12, 0.4, r)
	cases := []struct {
		name string
		a, b *sparse.CSR[float64]
	}{
		{"a leading, b trailing", blank(fullA, [2]int{0, 9}), blank(fullB, [2]int{31, rows})},
		{"interleaved", blank(fullA, [2]int{3, 8}, [2]int{20, 21}), blank(fullB, [2]int{8, 15}, [2]int{25, 33})},
		{"overlapping", blank(fullA, [2]int{5, 25}), blank(fullB, [2]int{15, 35})},
		{"a empty", blank(fullA, [2]int{0, rows}), fullB},
		{"b empty", fullA, blank(fullB, [2]int{0, rows})},
		{"both empty", blank(fullA, [2]int{0, rows}), blank(fullB, [2]int{0, rows})},
	}
	for _, tc := range cases {
		want := rowByRow(tc.a, tc.b)
		for _, swap := range []bool{false, true} {
			a, b := tc.a, tc.b
			if swap {
				a, b = b, a
			}
			got, err := EWiseAdd[float64](sr, a, b)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := got.Check(); err != nil {
				t.Errorf("%s (swapped %v): %v", tc.name, swap, err)
			}
			if !sparse.Equal(got, want) {
				t.Errorf("%s (swapped %v): result differs from the row-by-row merge", tc.name, swap)
			}
			// Into the storage of an earlier union, of a different size.
			dst, err := EWiseAdd[float64](sr, fullA, fullB)
			if err != nil {
				t.Fatal(err)
			}
			into, err := EWiseAddInto[float64](sr, dst, a, b)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if into != dst || into.Check() != nil || !sparse.Equal(into, want) {
				t.Errorf("%s (swapped %v): union into reused storage differs from the row-by-row merge", tc.name, swap)
			}
		}
	}
}

func TestEWiseMultOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := r.Intn(20)+1, r.Intn(20)+1
		a := randMatrix(rows, cols, 0.35, r)
		b := randMatrix(rows, cols, 0.35, r)
		got, err := EWiseMult[float64](semiring.PlusTimes[float64]{}, a, b)
		if err != nil || got.Check() != nil {
			return false
		}
		// Intersection structure with products.
		for i := 0; i < rows; i++ {
			for _, j := range got.RowCols(i) {
				if !a.Has(i, j) || !b.Has(i, j) {
					return false
				}
				if got.At(i, j) != a.At(i, j)*b.At(i, j) {
					return false
				}
			}
			for _, j := range a.RowCols(i) {
				if b.Has(i, j) && !got.Has(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEWiseShapeErrors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randMatrix(4, 5, 0.5, r)
	b := randMatrix(5, 4, 0.5, r)
	if _, err := EWiseAdd[float64](semiring.PlusTimes[float64]{}, a, b); err == nil {
		t.Error("EWiseAdd shape mismatch accepted")
	}
	if _, err := EWiseMult[float64](semiring.PlusTimes[float64]{}, a, b); err == nil {
		t.Error("EWiseMult shape mismatch accepted")
	}
}

func TestEWiseMultEqualsApplyMaskOnPattern(t *testing.T) {
	// eWiseMult with a pattern (all-ones) operand is structural masking.
	r := rand.New(rand.NewSource(7))
	c := randMatrix(25, 25, 0.3, r)
	m := randMatrix(25, 25, 0.3, r)
	viaEWise, err := EWiseMult[float64](semiring.PlusTimes[float64]{}, c, m.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	viaMask, err := ApplyMask(m, c)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(viaEWise, viaMask) {
		t.Error("eWiseMult(pattern) != ApplyMask")
	}
}

func TestReduceRows(t *testing.T) {
	coo := sparse.NewCOO[float64](4, 5, 5)
	coo.Add(0, 1, 2)
	coo.Add(0, 4, 3)
	coo.Add(2, 0, 7)
	// row 1 and 3 empty
	m := coo.ToCSR()
	v := ReduceRows[float64](semiring.PlusTimes[float64]{}, m)
	if v.NNZ() != 2 {
		t.Fatalf("reduced nnz = %d, want 2", v.NNZ())
	}
	if v.Idx[0] != 0 || v.Val[0] != 5 || v.Idx[1] != 2 || v.Val[1] != 7 {
		t.Errorf("reduce = %v %v", v.Idx, v.Val)
	}
	// Min-reduce picks the per-row minimum.
	mn := ReduceRows[float64](semiring.MinPlus[float64]{Inf: 1e18}, m)
	if mn.Val[0] != 2 {
		t.Errorf("min reduce = %v, want 2", mn.Val[0])
	}
}

func TestReduceRowsTrianglesPerVertex(t *testing.T) {
	// Row-reducing the support matrix S = A ⊙ (A×A) gives 2× triangles
	// per vertex (each incident triangle contributes to two of the
	// vertex's edges... counted once per neighbor pair = 2 per triangle).
	coo := sparse.NewCOO[float64](3, 3, 6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		coo.Add(sparse.Index(e[0]), sparse.Index(e[1]), 1)
		coo.Add(sparse.Index(e[1]), sparse.Index(e[0]), 1)
	}
	a := coo.ToCSR()
	s, err := MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, a, a, a, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := ReduceRows[float64](semiring.PlusTimes[float64]{}, s)
	for p := range v.Idx {
		if v.Val[p] != 2 {
			t.Errorf("vertex %d wedge count %v, want 2", v.Idx[p], v.Val[p])
		}
	}
}
