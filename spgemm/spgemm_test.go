package spgemm_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"maskedspgemm/spgemm"
)

func bowtie(t *testing.T) *spgemm.Matrix {
	t.Helper()
	a, err := spgemm.FromEdges(5, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{2, 3}, {3, 4}, {4, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFromEdges(t *testing.T) {
	a := bowtie(t)
	if a.Rows() != 5 || a.Cols() != 5 || a.NNZ() != 12 {
		t.Fatalf("shape %dx%d nnz %d", a.Rows(), a.Cols(), a.NNZ())
	}
	if !a.Has(0, 1) || !a.Has(1, 0) {
		t.Error("edges must be stored in both directions")
	}
	if a.Has(0, 0) {
		t.Error("self loop stored")
	}
	if _, err := spgemm.FromEdges(3, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	// Self-loops are silently dropped; duplicates collapse.
	b, err := spgemm.FromEdges(3, [][2]int{{1, 1}, {0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if b.NNZ() != 2 || b.At(0, 1) != 1 {
		t.Errorf("dedup wrong: nnz=%d val=%v", b.NNZ(), b.At(0, 1))
	}
}

func TestFromTriples(t *testing.T) {
	m, err := spgemm.FromTriples(2, 3, []spgemm.Triple{
		{0, 1, 2}, {1, 2, 3}, {0, 1, 4}, // duplicate sums
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 6 || m.At(1, 2) != 3 {
		t.Error("values wrong")
	}
	if _, err := spgemm.FromTriples(2, 2, []spgemm.Triple{{5, 0, 1}}); err == nil {
		t.Error("out-of-range triple accepted")
	}
}

// TestConstructorsRejectBadShape requires both constructors to refuse a
// negative dimension, or one past the int32 index range, with ErrShape
// and before allocating anything sized by it; an empty shape is valid.
func TestConstructorsRejectBadShape(t *testing.T) {
	const over = math.MaxInt32 + 1
	for _, c := range []struct {
		name  string
		build func() (*spgemm.Matrix, error)
		ok    bool
	}{
		{"triples/empty", func() (*spgemm.Matrix, error) { return spgemm.FromTriples(0, 0, nil) }, true},
		{"triples/negative-rows", func() (*spgemm.Matrix, error) { return spgemm.FromTriples(-1, 2, nil) }, false},
		{"triples/negative-cols", func() (*spgemm.Matrix, error) { return spgemm.FromTriples(2, -1, nil) }, false},
		{"triples/rows-past-int32", func() (*spgemm.Matrix, error) { return spgemm.FromTriples(over, 2, nil) }, false},
		{"triples/cols-past-int32", func() (*spgemm.Matrix, error) { return spgemm.FromTriples(2, over, nil) }, false},
		{"edges/empty", func() (*spgemm.Matrix, error) { return spgemm.FromEdges(0, nil) }, true},
		{"edges/negative", func() (*spgemm.Matrix, error) { return spgemm.FromEdges(-1, nil) }, false},
		{"edges/past-int32", func() (*spgemm.Matrix, error) { return spgemm.FromEdges(over, nil) }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.build()
			if c.ok && err != nil {
				t.Fatalf("err = %v, want a matrix", err)
			}
			if !c.ok && !errors.Is(err, spgemm.ErrShape) {
				t.Fatalf("err = %v, want ErrShape", err)
			}
		})
	}
}

// TestMxMAgainstTwoStep holds the masked product to its two-step
// definition, computed here from the operands' rows: the full product
// a × a, then only the positions the mask stores.
func TestMxMAgainstTwoStep(t *testing.T) {
	a := spgemm.RandomGraph("er", 80, 3)
	fused, err := spgemm.MxM(a, a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows()
	var entries []spgemm.Triple
	for i := range n {
		full := make([]float64, n)
		cols, vals := a.Row(i)
		for p, k := range cols {
			kCols, kVals := a.Row(int(k))
			for q, j := range kCols {
				full[j] += vals[p] * kVals[q]
			}
		}
		for _, j := range cols {
			if full[j] != 0 {
				entries = append(entries, spgemm.Triple{Row: i, Col: int(j), Val: full[j]})
			}
		}
	}
	twoStep, err := spgemm.FromTriples(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	if !fused.Equal(twoStep) {
		t.Error("fused masked product differs from two-step")
	}
}

// TestMaskIsStructural pins the mask semantics: a stored zero in the
// mask allows its position like any other stored entry (GraphBLAS
// GrB_STRUCTURE).
func TestMaskIsStructural(t *testing.T) {
	a, _ := spgemm.FromTriples(2, 2, []spgemm.Triple{
		{0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1},
	})
	mask, _ := spgemm.FromTriples(2, 2, []spgemm.Triple{
		{0, 0, 0}, // explicit zero
		{0, 1, 1},
	})
	c, err := spgemm.MxM(mask, a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 2 || !c.Has(0, 0) || !c.Has(0, 1) {
		t.Errorf("structural mask kept %d entries, want (0,0) and (0,1)", c.NNZ())
	}
}

func TestMxMSemirings(t *testing.T) {
	a := bowtie(t)
	for _, sr := range []spgemm.Semiring{spgemm.SRPlusTimes, spgemm.SRPlusPair, spgemm.SROrAnd} {
		o := spgemm.Defaults()
		o.Semiring = sr
		c, err := spgemm.MxM(a, a, a, o)
		if err != nil {
			t.Fatalf("semiring %d: %v", sr, err)
		}
		if c.NNZ() == 0 {
			t.Errorf("semiring %d: empty result", sr)
		}
	}
}

func TestTriangleCounts(t *testing.T) {
	a := bowtie(t)
	n, err := spgemm.TriangleCount(a, spgemm.Defaults())
	if err != nil || n != 2 {
		t.Errorf("TriangleCount = %d (%v), want 2", n, err)
	}
}

func TestKTruss(t *testing.T) {
	a := bowtie(t)
	truss, rounds, err := spgemm.KTruss(a, 3, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 || truss.NNZ() != 12 {
		t.Errorf("3-truss of bowtie: nnz=%d rounds=%d, want 12 edges kept", truss.NNZ(), rounds)
	}
	empty, _, err := spgemm.KTruss(a, 4, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if empty.NNZ() != 0 {
		t.Error("4-truss of bowtie must be empty")
	}
}

func TestBFSAndBC(t *testing.T) {
	a := bowtie(t)
	levels, err := spgemm.BFS(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 1, 2, 2}
	for v, l := range levels {
		if l != want[v] {
			t.Errorf("level[%d] = %d, want %d", v, l, want[v])
		}
	}
	bc, err := spgemm.BetweennessCentralityBatch(a, []int{0, 1, 2, 3, 4}, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 2 is the cut vertex: strictly the most central.
	for v := range bc {
		if v != 2 && bc[v] >= bc[2] {
			t.Errorf("bc[%d]=%.1f >= bc[2]=%.1f", v, bc[v], bc[2])
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	a := spgemm.RandomGraph("er", 40, 9)
	var buf bytes.Buffer
	if err := a.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := spgemm.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(back) {
		t.Error("round trip changed matrix")
	}
	if _, err := spgemm.ReadMatrixMarket(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMatrixTransforms(t *testing.T) {
	a := bowtie(t)
	if !a.Transpose().Equal(a) {
		t.Error("symmetric graph transpose differs")
	}
	l, u := a.Tril(), a.Triu()
	if l.NNZ()+u.NNZ() != a.NNZ() {
		t.Error("tril+triu lost entries")
	}
	if !l.Transpose().Equal(u.Pattern()) && !l.Transpose().Equal(u) {
		t.Error("tril^T != triu for symmetric graph")
	}
	s := a.Stats()
	if !s.Symmetric || s.Rows != 5 {
		t.Errorf("stats wrong: %+v", s)
	}
	// Row copies must be detached from internal storage.
	cols, vals := a.Row(2)
	if len(cols) != 4 || len(vals) != 4 {
		t.Errorf("Row(2) = %v %v", cols, vals)
	}
	cols[0] = 99
	cols2, _ := a.Row(2)
	if cols2[0] == 99 {
		t.Error("Row returned aliased storage")
	}
}

func TestRandomGraphKinds(t *testing.T) {
	for _, kind := range []string{"rmat", "road", "web", "circuit", "er"} {
		g := spgemm.RandomGraph(kind, 300, 5)
		if g.NNZ() == 0 {
			t.Errorf("%s: empty graph", kind)
		}
		if g.Rows() < 300 {
			t.Errorf("%s: %d vertices, want >= 300", kind, g.Rows())
		}
	}
}

func TestMxMShapeErrors(t *testing.T) {
	a := spgemm.RandomGraph("er", 20, 1)
	b := spgemm.RandomGraph("er", 30, 1)
	if _, err := spgemm.MxM(a, a, b, spgemm.Defaults()); err == nil {
		t.Error("shape mismatch accepted")
	}
	bad := spgemm.Defaults()
	bad.Kappa = -1
	if _, err := spgemm.MxM(a, a, a, bad); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestMatrixSum checks Sum against the stored values, duplicates summed
// at construction, and the empty matrix's zero.
func TestMatrixSum(t *testing.T) {
	m, err := spgemm.FromTriples(3, 4, []spgemm.Triple{
		{Row: 0, Col: 1, Val: 1.5}, {Row: 2, Col: 3, Val: -4}, {Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 0, Val: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Sum(); got != -0.25 {
		t.Errorf("Sum = %v, want -0.25", got)
	}
	empty, err := spgemm.FromTriples(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.Sum(); got != 0 {
		t.Errorf("empty Sum = %v, want 0", got)
	}
}
