package spgemm_test

import (
	"bytes"
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
	if _, err := spgemm.FromTriples(-1, 2, nil); err == nil {
		t.Error("negative shape accepted")
	}
}

func TestMxMAgainstTwoStep(t *testing.T) {
	a := spgemm.RandomGraph("er", 80, 3)
	fused, err := spgemm.MxM(a, a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	full, err := spgemm.MxMUnmasked(a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	twoStep, err := spgemm.ApplyMask(a, full)
	if err != nil {
		t.Fatal(err)
	}
	if !fused.Equal(twoStep) {
		t.Error("fused masked product differs from two-step")
	}
}

func TestMxMComplement(t *testing.T) {
	a := spgemm.RandomGraph("er", 60, 11)
	masked, err := spgemm.MxM(a, a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := spgemm.MxMComplement(a, a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	full, err := spgemm.MxMUnmasked(a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if masked.NNZ()+comp.NNZ() != full.NNZ() {
		t.Errorf("masked (%d) + complement (%d) != full (%d)",
			masked.NNZ(), comp.NNZ(), full.NNZ())
	}
}

func TestGraphAlgorithmsOnFacade(t *testing.T) {
	a := spgemm.RandomGraph("er", 50, 13)
	labels, comps, err := spgemm.ConnectedComponents(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != a.Rows() || comps < 1 {
		t.Errorf("CC: %d labels, %d components", len(labels), comps)
	}
	dist, err := spgemm.ShortestPaths(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 0 {
		t.Errorf("dist[src] = %v", dist[0])
	}
	ranks, err := spgemm.PageRank(a, 0.85, 1e-8, 200)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("pagerank sum %v", sum)
	}
}

func TestValuedMask(t *testing.T) {
	mask, a := valuedMaskFixture()
	structural, err := spgemm.MxM(mask, a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if structural.NNZ() != 2 {
		t.Errorf("structural mask kept %d entries, want 2", structural.NNZ())
	}
	opts := spgemm.Defaults()
	opts.ValuedMask = true
	valued, err := spgemm.MxM(mask, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if valued.NNZ() != 1 || !valued.Has(0, 1) {
		t.Errorf("valued mask kept %d entries, want only (0,1)", valued.NNZ())
	}
}

// valuedMaskFixture is a mask with one explicit zero over an all-ones
// 2×2 operand: structural semantics allow (0,0), valued semantics do not.
func valuedMaskFixture() (mask, a *spgemm.Matrix) {
	a, _ = spgemm.FromTriples(2, 2, []spgemm.Triple{
		{0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1},
	})
	mask, _ = spgemm.FromTriples(2, 2, []spgemm.Triple{
		{0, 0, 0}, // explicit zero
		{0, 1, 1},
	})
	return mask, a
}

// TestValuedMaskMultiplier requires a Multiplier to honor ValuedMask
// exactly as MxM does, and to prune once: every Multiply presents the
// same pruned mask, so the plan built at construction is the only miss.
func TestValuedMaskMultiplier(t *testing.T) {
	mask, a := valuedMaskFixture()
	opts := spgemm.Defaults()
	opts.ValuedMask = true
	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	mu, err := spgemm.NewMultiplier(mask, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		valued, err := mu.Multiply()
		if err != nil {
			t.Fatal(err)
		}
		if valued.NNZ() != 1 || !valued.Has(0, 1) {
			t.Fatalf("rep %d: valued mask kept %d entries, want only (0,1)", rep, valued.NNZ())
		}
	}
	if st := opts.Engine.Stats(); st.PlanMisses != 1 || st.PlanHits != 3 {
		t.Errorf("plan cache %d misses / %d hits over 3 multiplies, want 1 / 3", st.PlanMisses, st.PlanHits)
	}
}

// TestValuedMaskComplement requires the complemented mask to follow
// ValuedMask too: a stored zero does not exclude its position.
func TestValuedMaskComplement(t *testing.T) {
	mask, a := valuedMaskFixture()
	structural, err := spgemm.MxMComplement(mask, a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if structural.NNZ() != 2 || structural.Has(0, 0) {
		t.Errorf("structural complement kept %d entries, want row 1 only", structural.NNZ())
	}
	opts := spgemm.Defaults()
	opts.ValuedMask = true
	valued, err := spgemm.MxMComplement(mask, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if valued.NNZ() != 3 || !valued.Has(0, 0) || valued.Has(0, 1) {
		t.Errorf("valued complement kept %d entries, want everything but (0,1)", valued.NNZ())
	}
}

func TestMultiplierFacade(t *testing.T) {
	a := spgemm.RandomGraph("er", 70, 21)
	want, err := spgemm.MxM(a, a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	mu, err := spgemm.NewMultiplier(a, a, a, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		got, err := mu.Multiply()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("rep %d differs from MxM", rep)
		}
	}
	b := spgemm.RandomGraph("er", 30, 22)
	if _, err := spgemm.NewMultiplier(a, a, b, spgemm.Defaults()); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestEWiseOps(t *testing.T) {
	a, _ := spgemm.FromTriples(2, 2, []spgemm.Triple{{0, 0, 1}, {0, 1, 2}})
	b, _ := spgemm.FromTriples(2, 2, []spgemm.Triple{{0, 1, 3}, {1, 1, 4}})
	sum, err := spgemm.EWiseAdd(a, b, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if sum.NNZ() != 3 || sum.At(0, 1) != 5 || sum.At(0, 0) != 1 || sum.At(1, 1) != 4 {
		t.Errorf("EWiseAdd wrong: nnz=%d", sum.NNZ())
	}
	prod, err := spgemm.EWiseMult(a, b, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if prod.NNZ() != 1 || prod.At(0, 1) != 6 {
		t.Errorf("EWiseMult wrong: nnz=%d", prod.NNZ())
	}
	idx, vals := spgemm.ReduceRows(a)
	if len(idx) != 1 || idx[0] != 0 || vals[0] != 3 {
		t.Errorf("ReduceRows = %v %v", idx, vals)
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
	ll, err := spgemm.TriangleCountLL(a, spgemm.Defaults())
	if err != nil || ll != 2 {
		t.Errorf("TriangleCountLL = %d (%v), want 2", ll, err)
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
	bc, err := spgemm.BetweennessCentrality(a, []int{0, 1, 2, 3, 4})
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

// bruteCore is the k-core decomposition by definition: v's coreness is
// the largest k for which v survives repeatedly deleting every vertex
// with fewer than k live neighbours.
func bruteCore(g *spgemm.Matrix) []int32 {
	n := g.Rows()
	core := make([]int32, n)
	for k := int32(1); ; k++ {
		alive := make([]bool, n)
		for v := range alive {
			alive[v] = true
		}
		for changed := true; changed; {
			changed = false
			for v := range n {
				if !alive[v] {
					continue
				}
				cols, _ := g.Row(v)
				deg := int32(0)
				for _, u := range cols {
					if alive[u] {
						deg++
					}
				}
				if deg < k {
					alive[v], changed = false, true
				}
			}
		}
		survivors := 0
		for v, ok := range alive {
			if ok {
				core[v] = k
				survivors++
			}
		}
		if survivors == 0 {
			return core
		}
	}
}

// TestKCoreMatchesBrutePeel holds the facade's bucketed KCore to the
// definition on the simple undirected graphs of three families: ER, road
// and R-MAT.
func TestKCoreMatchesBrutePeel(t *testing.T) {
	for _, kind := range []string{"er", "road", "rmat"} {
		src := spgemm.RandomGraph(kind, 120, 9)
		var edges [][2]int
		for i := range src.Rows() {
			cols, _ := src.Row(i)
			for _, j := range cols {
				edges = append(edges, [2]int{i, int(j)})
			}
		}
		g, err := spgemm.FromEdges(src.Rows(), edges)
		if err != nil {
			t.Fatal(err)
		}
		core, maxCore, err := spgemm.KCore(g)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteCore(g)
		wantMax := int32(0)
		for v, c := range want {
			wantMax = max(wantMax, c)
			if core[v] != c {
				t.Fatalf("%s: vertex %d has coreness %d, brute peel says %d", kind, v, core[v], c)
			}
		}
		if maxCore != wantMax || wantMax < 2 {
			t.Fatalf("%s: degeneracy %d, brute peel says %d (want at least 2 for a useful fixture)",
				kind, maxCore, wantMax)
		}
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
