package graph

import (
	"runtime"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// ktrussVariant is one k-truss formulation.
type ktrussVariant struct {
	name string
	run  func(a *sparse.CSR[float64], k int, cfg core.Config) (*KTrussResult, error)
}

var ktrussVariants = []ktrussVariant{{"staged", KTruss}, {"fused", KTrussFused}}

// complete returns the complete graph on n vertices, every edge valued v.
func complete(n int, v float64) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](n, n, int64(n*(n-1)))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				coo.Add(sparse.Index(i), sparse.Index(j), v)
			}
		}
	}
	return coo.ToCSR()
}

// scribble overwrites every array of m up to its capacity.
func scribble(m *sparse.CSR[float64]) {
	for i, p := range m.RowPtr[:cap(m.RowPtr)] {
		m.RowPtr[:cap(m.RowPtr)][i] = p + 1000
	}
	for q := range m.ColIdx[:cap(m.ColIdx)] {
		m.ColIdx[:cap(m.ColIdx)][q] = 999
		m.Val[:cap(m.Val)][q] = -1
	}
}

// TestKTrussResultDoesNotAliasInput pins that the truss owns its
// storage, whether the input peels over several rounds, to nothing, or
// not at all (an input that already is a 4-truss returns after one
// round with the input's own values): scribbling over the result,
// spare capacity included, leaves the input as it was.
func TestKTrussResultDoesNotAliasInput(t *testing.T) {
	inputs := []struct {
		name   string
		a      *sparse.CSR[float64]
		rounds int // 0: any
	}{
		{"peels", smallGraph(7), 0},
		{"empties", graphgen.ErdosRenyi(200, 600, 1), 0},
		{"already a 4-truss", complete(6, 2), 1},
	}
	for _, v := range ktrussVariants {
		for _, in := range inputs {
			orig := in.a.Clone()
			res, err := v.run(in.a, 4, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			if in.rounds != 0 {
				if res.Rounds != in.rounds || !sparse.Equal(res.Truss, orig) {
					t.Fatalf("%s %s: %d rounds, truss equal to input %v; want 1 round and the input",
						v.name, in.name, res.Rounds, sparse.Equal(res.Truss, orig))
				}
			}
			scribble(res.Truss)
			if !sparse.Equal(in.a, orig) {
				t.Fatalf("%s %s: writing the result changed the input", v.name, in.name)
			}
		}
	}
}

// TestKTrussRecyclesRoundStorage pins that k-truss rounds recycle their
// result storage: a warm run of six rounds on an engine allocates about
// the first two rounds' results plus each round's plan, at most three
// times the first round's result bytes plus the plans, where a result
// per round would be six. A 100-clique beside the peeling part survives
// every round, so each round's result is at least the clique's.
func TestKTrussRecyclesRoundStorage(t *testing.T) {
	er := graphgen.ErdosRenyi(500, 6000, 2)
	k100 := complete(100, 1)
	n := er.Rows + k100.Rows
	coo := sparse.NewCOO[float64](n, n, er.NNZ()+k100.NNZ())
	for _, part := range []struct {
		m   *sparse.CSR[float64]
		off int
	}{{er, 0}, {k100, er.Rows}} {
		for i := 0; i < part.m.Rows; i++ {
			for _, j := range part.m.RowCols(i) {
				coo.Add(sparse.Index(part.off+i), sparse.Index(part.off+int(j)), 1)
			}
		}
	}
	a := coo.ToCSR()
	sr := semiring.PlusPair[float64]{}
	first := map[string]func() (*sparse.CSR[float64], error){
		"staged": func() (*sparse.CSR[float64], error) {
			return core.MaskedSpGEMM[float64](sr, a, a, a, testCfg())
		},
		"fused": func() (*sparse.CSR[float64], error) {
			return core.MaskedSpGEMMSelect[float64](sr, a, a, a, testCfg(),
				func(v float64) (float64, bool) { return 1, v >= 2 })
		},
	}
	for _, v := range ktrussVariants {
		round1, err := first[v.name]()
		if err != nil {
			t.Fatal(err)
		}
		resultBytes := 8*uint64(n+1) + 12*uint64(round1.NNZ())
		cfg := testCfg()
		cfg.Engine = exec.New(exec.Config{})
		if _, err := v.run(a, 4, cfg); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := v.run(a, 4, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds < 5 {
			t.Fatalf("fixture: %s k-truss ran %d rounds, want at least 5", v.name, res.Rounds)
		}
		// A plan is an Eq. 2 prefix sum over the rows and the tiles; the
		// rest is a few small per-run objects.
		planBytes := uint64(res.Rounds) * (16*uint64(n+1) + 4096)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d rounds, %d B allocated, first-round result %d B", v.name, res.Rounds, got, resultBytes)
		if bound := 3*resultBytes + planBytes; got > bound {
			t.Errorf("%s: a %d-round k-truss allocated %d B; want at most %d (3 × %d B first-round result + %d B plans)",
				v.name, res.Rounds, got, bound, resultBytes, planBytes)
		}
	}
}

// disjoint returns the block-diagonal union of the given graphs.
func disjoint(parts ...*sparse.CSR[float64]) *sparse.CSR[float64] {
	var n int
	var nnz int64
	for _, p := range parts {
		n += p.Rows
		nnz += p.NNZ()
	}
	coo := sparse.NewCOO[float64](n, n, nnz)
	off := 0
	for _, p := range parts {
		for i := 0; i < p.Rows; i++ {
			cols, vals := p.Row(i)
			for q, j := range cols {
				coo.Add(sparse.Index(off+i), sparse.Index(off+int(j)), vals[q])
			}
		}
		off += p.Rows
	}
	return coo.ToCSR()
}

// TestKTrussLargeK covers k past the prebuilt fused selectors (k >= 64)
// and at their edge: a 70-clique, whose edges lie in 68 triangles each,
// is its own k-truss up to k = 70 and peels to nothing at k = 71, while
// the sparse part beside it empties.
func TestKTrussLargeK(t *testing.T) {
	a := disjoint(graphgen.ErdosRenyi(300, 1500, 5), complete(70, 1))
	for _, k := range []int{63, 64, 70, 71} {
		want, err := KTruss(a, k, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		got, err := KTrussFused(a, k, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(got.Truss, want.Truss) || got.Rounds != want.Rounds {
			t.Fatalf("k=%d: fused truss differs from staged", k)
		}
		wantEdges := int64(70 * 69 / 2)
		if k > 70 {
			wantEdges = 0
		}
		if want.Edges != wantEdges {
			t.Errorf("k=%d: %d edges, want %d", k, want.Edges, wantEdges)
		}
	}
}

// TestKTrussResultIsRightSized pins that a truss much smaller than the
// round buffer it ends in does not keep that buffer: its column and
// value arrays hold at most twice its entries, whether it peels to a
// clique or to nothing.
func TestKTrussResultIsRightSized(t *testing.T) {
	inputs := map[string]*sparse.CSR[float64]{
		"to a clique": disjoint(graphgen.ErdosRenyi(400, 4000, 3), complete(12, 1)),
		"to nothing":  graphgen.ErdosRenyi(400, 4000, 3),
	}
	for _, v := range ktrussVariants {
		for name, a := range inputs {
			res, err := v.run(a, 5, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			n := res.Truss.NNZ()
			if int64(cap(res.Truss.ColIdx)) > 2*n || int64(cap(res.Truss.Val)) > 2*n {
				t.Errorf("%s %s: %d entries in arrays of capacity %d and %d",
					v.name, name, n, cap(res.Truss.ColIdx), cap(res.Truss.Val))
			}
		}
	}
}
