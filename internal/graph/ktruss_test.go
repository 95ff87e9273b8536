package graph

import (
	"fmt"
	"runtime"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

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
	for _, in := range inputs {
		orig := in.a.Clone()
		res, err := KTruss(in.a, 4, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		if in.rounds != 0 {
			if res.Rounds != in.rounds || !sparse.Equal(res.Truss, orig) {
				t.Fatalf("%s: %d rounds, truss equal to input %v; want 1 round and the input",
					in.name, res.Rounds, sparse.Equal(res.Truss, orig))
			}
		}
		scribble(res.Truss)
		if !sparse.Equal(in.a, orig) {
			t.Fatalf("%s: writing the result changed the input", in.name)
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
	round1, err := core.MaskedSpGEMMSelectInto[float64](semiring.PlusPair[float64]{}, nil, a, a, a, testCfg(),
		func(v float64) (float64, bool) { return 1, v >= 2 })
	if err != nil {
		t.Fatal(err)
	}
	resultBytes := 8*uint64(n+1) + 12*uint64(round1.NNZ())
	cfg := testCfg()
	cfg.Engine = exec.New(exec.Config{})
	if _, err := KTruss(a, 4, cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := KTruss(a, 4, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 5 {
		t.Fatalf("fixture: k-truss ran %d rounds, want at least 5", res.Rounds)
	}
	// A plan is an Eq. 2 prefix sum over the rows and the tiles; the
	// rest is a few small per-run objects.
	planBytes := uint64(res.Rounds) * (16*uint64(n+1) + 4096)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d rounds, %d B allocated, first-round result %d B", res.Rounds, got, resultBytes)
	if bound := 3*resultBytes + planBytes; got > bound {
		t.Errorf("a %d-round k-truss allocated %d B; want at most %d (3 × %d B first-round result + %d B plans)",
			res.Rounds, got, bound, resultBytes, planBytes)
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

// TestKTrussLargeK covers k past the prebuilt selectors (k >= 64) and
// at their edge: a 70-clique, whose edges lie in 68 triangles each, is
// its own k-truss up to k = 70 and peels to nothing at k = 71, while the
// sparse part beside it empties, as the definition (bruteTruss) says.
func TestKTrussLargeK(t *testing.T) {
	a := disjoint(graphgen.ErdosRenyi(300, 1500, 5), complete(70, 1))
	for _, k := range []int{63, 64, 70, 71} {
		res, err := KTruss(a, k, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		checkTruss(t, fmt.Sprintf("k=%d", k), res.Truss, bruteTruss(a, k))
		wantEdges := int64(70 * 69 / 2)
		if k > 70 {
			wantEdges = 0
		}
		if res.Edges != wantEdges {
			t.Errorf("k=%d: %d edges, want %d", k, res.Edges, wantEdges)
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
	for name, a := range inputs {
		res, err := KTruss(a, 5, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		n := res.Truss.NNZ()
		if int64(cap(res.Truss.ColIdx)) > 2*n || int64(cap(res.Truss.Val)) > 2*n {
			t.Errorf("%s: %d entries in arrays of capacity %d and %d",
				name, n, cap(res.Truss.ColIdx), cap(res.Truss.Val))
		}
	}
}

// bruteTruss is the k-truss by definition, sharing no code with core:
// it repeatedly drops every edge that lies in fewer than k−2 triangles
// of the surviving graph, counting each edge's triangles by
// intersecting its endpoints' neighbour sets, until a sweep drops
// nothing. a must be symmetric and diagonal-free; the result is the
// surviving neighbour sets.
func bruteTruss(a *sparse.CSR[float64], k int) []map[int]bool {
	adj := make([]map[int]bool, a.Rows)
	for i := range adj {
		adj[i] = map[int]bool{}
		for _, j := range a.RowCols(i) {
			adj[i][int(j)] = true
		}
	}
	for {
		var drop [][2]int
		for u := range adj {
			for v := range adj[u] {
				if v < u {
					continue
				}
				support := 0
				for w := range adj[u] {
					if adj[v][w] {
						support++
					}
				}
				if support < k-2 {
					drop = append(drop, [2]int{u, v})
				}
			}
		}
		if len(drop) == 0 {
			return adj
		}
		for _, e := range drop {
			delete(adj[e[0]], e[1])
			delete(adj[e[1]], e[0])
		}
	}
}

// undirected is g symmetrized, without its diagonal, every value 1.
func undirected(g *sparse.CSR[float64]) *sparse.CSR[float64] {
	s := sparse.Symmetrize(g)
	coo := sparse.NewCOO[float64](s.Rows, s.Cols, s.NNZ())
	for i := 0; i < s.Rows; i++ {
		for _, j := range s.RowCols(i) {
			if int(j) != i {
				coo.Add(sparse.Index(i), j, 1)
			}
		}
	}
	return coo.ToCSR()
}

// TestKTrussMatchesBruteForce holds the k-truss to the definition (bruteTruss) on the four generated graph families — R-MAT,
// road lattice, web and circuit — at k = 3 through 6: the truss stores
// exactly the surviving edges. The 3-truss of every fixture is
// non-empty, so each compares a real peel.
func TestKTrussMatchesBruteForce(t *testing.T) {
	graphs := []struct {
		name string
		a    *sparse.CSR[float64]
	}{
		{"rmat", undirected(graphgen.RMAT(9, 8, 0.57, 0.19, 0.19, 41))},
		{"road", undirected(graphgen.RoadNetwork(24, 24, 0.95, 42))},
		{"web", undirected(graphgen.WebGraph(500, 8, 0.5, 43))},
		{"circuit", undirected(graphgen.Circuit(500, 3, 0.6, 2, 10, 44))},
	}
	for _, g := range graphs {
		for k := 3; k <= 6; k++ {
			t.Run(fmt.Sprintf("%s/k=%d", g.name, k), func(t *testing.T) {
				want := bruteTruss(g.a, k)
				edges := 0
				for _, nb := range want {
					edges += len(nb)
				}
				if k == 3 && edges == 0 {
					t.Fatal("fixture has no triangles: its 3-truss is empty")
				}
				res, err := KTruss(g.a, k, testCfg())
				if err != nil {
					t.Fatal(err)
				}
				checkTruss(t, g.name, res.Truss, want)
			})
		}
	}
}

// fullRecompute is the k-truss with a full product every round, the
// formulation delta rounds must reproduce: each round's kept edges
// carrying their support, in order.
func fullRecompute(t *testing.T, a *sparse.CSR[float64], k int) []*sparse.CSR[float64] {
	t.Helper()
	var rounds []*sparse.CSR[float64]
	for g := a; ; {
		s, err := core.MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, g, g, g, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		coo := sparse.NewCOO[float64](s.Rows, s.Cols, s.NNZ())
		for i := 0; i < s.Rows; i++ {
			cols, vals := s.Row(i)
			for q, j := range cols {
				if vals[q] >= float64(k-2) {
					coo.Add(sparse.Index(i), j, vals[q])
				}
			}
		}
		kept := coo.ToCSR()
		rounds = append(rounds, kept)
		if kept.NNZ() == g.NNZ() || kept.NNZ() == 0 {
			return rounds
		}
		g = kept
	}
}

// fromEdges is the n-vertex graph of the given directed edges, valued 1.
func fromEdges(n int, edges [][2]int) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](n, n, int64(len(edges)))
	for _, e := range edges {
		coo.Add(sparse.Index(e[0]), sparse.Index(e[1]), 1)
	}
	return coo.ToCSR()
}

// both lists every edge in both directions.
func both(edges ...[2]int) [][2]int {
	out := make([][2]int, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, [2]int{e[1], e[0]})
	}
	return out
}

// peelRounds runs a k-truss under a round hook forcing force and
// returns the result and each round's kept edges with their support,
// counting the rounds after the first by kind.
func peelRounds(t *testing.T, a *sparse.CSR[float64], k int, force RoundKind, delta, full *int) (*KTrussResult, []*sparse.CSR[float64]) {
	t.Helper()
	var got []*sparse.CSR[float64]
	defer SetRoundHookForTest(&RoundHook{Force: force, Observe: func(st RoundStat) {
		got = append(got, st.Support.Clone())
		if st.Round > 1 && st.Delta {
			*delta++
		} else if st.Round > 1 {
			*full++
		}
	}})()
	res, err := KTruss(a, k, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	return res, got
}

// TestKTrussRoundsMatchFullRecompute holds every round to the full
// product: the kept edges and their support
// bit for bit, and the round count, under the production rule and with
// every round after the first a delta round. The generated families
// peel over several rounds; three fixtures pin the corners of the
// update: a triangle that loses two edges in one round (the D·D term:
// the edge left loses that triangle once), edges in no triangle (left
// out of D), and a round that removes every edge. Across the fixtures
// the production rule runs both kinds of round after the first.
func TestKTrussRoundsMatchFullRecompute(t *testing.T) {
	type fixture struct {
		name string
		a    *sparse.CSR[float64]
		ks   []int
	}
	var fixtures []fixture
	for _, seed := range []uint64{1, 2} {
		for _, g := range []struct {
			name string
			a    *sparse.CSR[float64]
		}{
			{"er", undirected(graphgen.ErdosRenyi(300, 1800, seed))},
			{"rmat", undirected(graphgen.RMAT(8, 8, 0.57, 0.19, 0.19, seed))},
			{"web", undirected(graphgen.WebGraph(300, 6, 0.5, seed))},
			{"circuit", undirected(graphgen.Circuit(300, 3, 0.6, 2, 10, seed))},
			{"road", undirected(graphgen.RoadNetwork(16, 16, 0.95, seed))},
		} {
			fixtures = append(fixtures, fixture{fmt.Sprintf("%s/seed=%d", g.name, seed), g.a, []int{3, 4, 5, 8}})
		}
	}
	// {b,c,x,y} is a 4-clique; a closes triangles with b and c, p with
	// a and b, q with a and c. Round 1 drops a–p, b–p, a–q and c–q
	// (one triangle each), round 2 a–b and a–c (one triangle left each),
	// and b–c keeps the clique's two.
	const a, b, c, x, y, p, q = 0, 1, 2, 3, 4, 5, 6
	fixtures = append(fixtures,
		fixture{"triangle loses two edges", fromEdges(7, both(
			[2]int{b, c}, [2]int{b, x}, [2]int{b, y}, [2]int{c, x}, [2]int{c, y}, [2]int{x, y},
			[2]int{a, b}, [2]int{a, c}, [2]int{a, p}, [2]int{b, p}, [2]int{a, q}, [2]int{c, q})), []int{4}},
		// 0–1 lies in two triangles whose other edges lie in one each:
		// round 1 keeps only 0–1, whose support falls to 0 in round 2,
		// which removes every edge. The path 4–5–6 lies in none.
		fixture{"zero support, every edge in one round", fromEdges(7, both(
			[2]int{0, 1}, [2]int{0, 2}, [2]int{1, 2}, [2]int{0, 3}, [2]int{1, 3},
			[2]int{4, 5}, [2]int{5, 6})), []int{4}},
	)
	var delta, full int
	for _, f := range fixtures {
		for _, k := range f.ks {
			t.Run(fmt.Sprintf("%s/k=%d", f.name, k), func(t *testing.T) {
				want := fullRecompute(t, f.a, k)
				for _, force := range []RoundKind{AutoRounds, DeltaRounds} {
					var d, fl int
					res, got := peelRounds(t, f.a, k, force, &d, &fl)
					if force == AutoRounds {
						delta, full = delta+d, full+fl
					}
					if res.Rounds != len(want) || len(got) != len(want) {
						t.Fatalf("force=%d: %d rounds (%d observed), full recompute %d", force, res.Rounds, len(got), len(want))
					}
					for r := range want {
						if !sparse.Equal(got[r], want[r]) {
							t.Fatalf("force=%d: round %d's support differs from the full product's", force, r+1)
						}
					}
				}
			})
		}
	}
	t.Logf("production rule: %d delta and %d full rounds after the first", delta, full)
	if delta == 0 || full == 0 {
		t.Errorf("production rule ran %d delta and %d full rounds after the first; the fixtures must run both", delta, full)
	}
}

// TestKTrussDirectedInputRunsFullRounds pins the symmetric
// precondition: a non-symmetric pattern runs no delta round, even when
// one is forced, and gets the full product's rounds. In the first
// fixture 0–1 lies in one undirected triangle and on the one-way paths
// 0→4→1, 0→6→1, 1→5→0 and 1→7→0, which count toward its round-1
// support but lie in no triangle: an update from that support would
// keep 0–1, which the full product drops in round 2.
func TestKTrussDirectedInputRunsFullRounds(t *testing.T) {
	inputs := map[string]*sparse.CSR[float64]{
		"one-way paths": fromEdges(8, append(both([2]int{0, 1}, [2]int{0, 2}, [2]int{1, 2}),
			[2]int{0, 4}, [2]int{4, 1}, [2]int{0, 6}, [2]int{6, 1},
			[2]int{1, 5}, [2]int{5, 0}, [2]int{1, 7}, [2]int{7, 0})),
		"web": sparse.DropDiagonal(graphgen.WebGraph(300, 6, 0.5, 3)).Pattern(),
	}
	for name, a := range inputs {
		if sparse.IsSymmetric(a) {
			t.Fatalf("fixture %s is symmetric", name)
		}
		for _, k := range []int{3, 4} {
			want := fullRecompute(t, a, k)
			for _, force := range []RoundKind{AutoRounds, DeltaRounds} {
				var delta, full int
				res, got := peelRounds(t, a, k, force, &delta, &full)
				if delta != 0 {
					t.Errorf("%s k=%d force=%d: %d delta rounds on a non-symmetric pattern", name, k, force, delta)
				}
				if res.Rounds != len(want) || !sparse.EqualPattern(res.Truss, want[len(want)-1]) {
					t.Errorf("%s k=%d force=%d: %d rounds, want %d, or a different truss", name, k, force, res.Rounds, len(want))
				}
				for r := range got {
					if r < len(want) && !sparse.Equal(got[r], want[r]) {
						t.Errorf("%s k=%d force=%d: round %d differs from the full product's", name, k, force, r+1)
					}
				}
			}
		}
	}
}
