package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCSR builds a deterministic pseudo-random n×n matrix with the
// given approximate density for property tests.
func randomCSR(n int, density float64, seed int64) *CSR[float64] {
	r := rand.New(rand.NewSource(seed))
	coo := NewCOO[float64](n, n, int64(float64(n*n)*density)+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < density {
				coo.Add(Index(i), Index(j), float64(r.Intn(9)+1))
			}
		}
	}
	return coo.ToCSR()
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		m := randomCSR(20, 0.2, seed)
		tt := Transpose(Transpose(m))
		return Equal(m, tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposeEntries(t *testing.T) {
	m := randomCSR(15, 0.3, 7)
	mt := Transpose(m)
	if err := mt.Check(); err != nil {
		t.Fatalf("transpose malformed: %v", err)
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if got := mt.At(int(j), Index(i)); got != vals[k] {
				t.Fatalf("T[%d,%d] = %v, want %v", j, i, got, vals[k])
			}
		}
	}
	if m.NNZ() != mt.NNZ() {
		t.Errorf("transpose changed nnz: %d vs %d", m.NNZ(), mt.NNZ())
	}
}

func TestTrilTriuPartition(t *testing.T) {
	m := randomCSR(20, 0.25, 3)
	l, u, d := Tril(m), Triu(m), m.NNZ()
	if err := l.Check(); err != nil {
		t.Fatalf("tril malformed: %v", err)
	}
	if err := u.Check(); err != nil {
		t.Fatalf("triu malformed: %v", err)
	}
	var diag int64
	for i := 0; i < m.Rows; i++ {
		if m.Has(i, Index(i)) {
			diag++
		}
	}
	if l.NNZ()+u.NNZ()+diag != d {
		t.Errorf("tril+triu+diag = %d+%d+%d != nnz %d", l.NNZ(), u.NNZ(), diag, d)
	}
	for i := 0; i < l.Rows; i++ {
		for _, j := range l.RowCols(i) {
			if int(j) >= i {
				t.Fatalf("tril kept (%d,%d)", i, j)
			}
		}
		for _, j := range u.RowCols(i) {
			if int(j) <= i {
				t.Fatalf("triu kept (%d,%d)", i, j)
			}
		}
	}
}

func TestSymmetrizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := randomCSR(18, 0.15, seed)
		s := Symmetrize(m)
		if err := s.Check(); err != nil {
			return false
		}
		return EqualPattern(s, Transpose(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestIsSymmetric holds the one-pass check to its definition, the
// pattern equal to its transpose's, on random matrices (rarely
// symmetric) and their symmetrizations (always), and on the corners a
// cursor walk can miss: an entry whose transpose is missing at a row's
// end or start, and a non-square shape.
func TestIsSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		m := randomCSR(12, 0.2, seed)
		s := Symmetrize(m)
		return IsSymmetric(m) == EqualPattern(m, Transpose(m)) && IsSymmetric(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	pattern := func(rows, cols int, entries ...[2]Index) *CSR[float64] {
		coo := NewCOO[float64](rows, cols, int64(len(entries)))
		for _, e := range entries {
			coo.Add(e[0], e[1], 1)
		}
		return coo.ToCSR()
	}
	for name, m := range map[string]*CSR[float64]{
		"(1,2) without (2,1)": pattern(3, 3, [2]Index{0, 1}, [2]Index{1, 0}, [2]Index{1, 2}, [2]Index{2, 0}),
		"(2,0) without (0,2)": pattern(3, 3, [2]Index{0, 1}, [2]Index{1, 0}, [2]Index{2, 0}),
		"non-square":          pattern(2, 3),
	} {
		if IsSymmetric(m) {
			t.Errorf("%s: reads as symmetric", name)
		}
	}
}

func TestDropDiagonal(t *testing.T) {
	m := randomCSR(12, 0.4, 11)
	d := DropDiagonal(m)
	for i := 0; i < d.Rows; i++ {
		if d.Has(i, Index(i)) {
			t.Fatalf("diagonal entry (%d,%d) survived", i, i)
		}
	}
}

func TestDenseRoundTrip(t *testing.T) {
	m := randomCSR(14, 0.3, 5)
	back := FromDense(ToDense(m))
	if !Equal(m, back) {
		t.Error("CSR -> dense -> CSR changed the matrix")
	}
}

func TestMaskedMatMulDenseOracle(t *testing.T) {
	// Hand-checked 3x3 example.
	a := NewDense[float64](3, 3)
	a.Set(0, 1, 2)
	a.Set(1, 2, 3)
	a.Set(2, 0, 4)
	mask := NewDense[uint8](3, 3)
	mask.Set(0, 2, 1)
	mask.Set(1, 0, 1)
	mask.Set(2, 2, 1) // (2,2) of product is zero -> masked-in zero
	got := MaskedMatMulDense(mask, a, a)
	// A*A: (0,2) = 2*3 = 6; (1,0) = 3*4 = 12; (2,1) = 4*2 = 8 (masked out).
	if got.At(0, 2) != 6 || got.At(1, 0) != 12 {
		t.Errorf("oracle wrong: %+v", got)
	}
	if got.At(2, 1) != 0 {
		t.Error("oracle ignored mask")
	}
}

func TestSumValues(t *testing.T) {
	m := tinyCSRForSum()
	if got := SumValues(m); got != 21 {
		t.Errorf("SumValues = %v, want 21", got)
	}
}

func tinyCSRForSum() *CSR[float64] {
	coo := NewCOO[float64](3, 4, 6)
	coo.Add(0, 0, 1)
	coo.Add(0, 2, 2)
	coo.Add(1, 3, 3)
	coo.Add(2, 0, 4)
	coo.Add(2, 1, 5)
	coo.Add(2, 3, 6)
	return coo.ToCSR()
}

func TestComputeStats(t *testing.T) {
	m := tinyCSRForSum()
	s := ComputeStats(m, true)
	if s.NNZ != 6 || s.MaxRowNNZ != 3 || s.MinRowNNZ != 1 || s.EmptyRows != 0 {
		t.Errorf("stats wrong: %+v", s)
	}
	if s.Symmetric {
		t.Error("3x4 matrix reported symmetric")
	}
	if s.Bandwidth != 2 {
		t.Errorf("bandwidth = %d, want 2", s.Bandwidth)
	}
	sym := Symmetrize(randomCSR(10, 0.3, 2))
	if st := ComputeStats(sym, true); !st.Symmetric {
		t.Error("symmetrized matrix not reported symmetric")
	}
}

func TestRowDegrees(t *testing.T) {
	m := tinyCSRForSum()
	deg := RowDegrees(m)
	want := []int64{2, 1, 3}
	for i, d := range deg {
		if d != want[i] {
			t.Errorf("deg[%d] = %d, want %d", i, d, want[i])
		}
	}
}
