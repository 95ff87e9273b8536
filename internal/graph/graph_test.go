package graph

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// bruteTriangles counts triangles by enumerating vertex triples over the
// adjacency structure — the oracle for the algebraic formulations.
func bruteTriangles(a *sparse.CSR[float64]) int64 {
	var count int64
	for i := 0; i < a.Rows; i++ {
		for _, j := range a.RowCols(i) {
			if int(j) <= i {
				continue
			}
			for _, k := range a.RowCols(int(j)) {
				if int(k) <= int(j) {
					continue
				}
				if a.Has(i, k) {
					count++
				}
			}
		}
	}
	return count
}

func smallGraph(seed uint64) *sparse.CSR[float64] {
	return graphgen.ErdosRenyi(40, 150, seed)
}

func testCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = 2
	cfg.Tiles = 8
	return cfg
}

func TestTriangleCountAgreesWithBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		a := smallGraph(seed)
		got, err := TriangleCount(a, nil, testCfg())
		return err == nil && got == bruteTriangles(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTriangleCountKnownGraphs(t *testing.T) {
	// Complete graph K5 has C(5,3) = 10 triangles.
	coo := sparse.NewCOO[float64](5, 5, 20)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				coo.Add(sparse.Index(i), sparse.Index(j), 1)
			}
		}
	}
	got, err := TriangleCount(coo.ToCSR(), nil, testCfg())
	if err != nil || got != 10 {
		t.Errorf("K5 triangles = %d (%v), want 10", got, err)
	}

	// A 4-cycle has none.
	coo = sparse.NewCOO[float64](4, 4, 8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		coo.Add(sparse.Index(e[0]), sparse.Index(e[1]), 1)
		coo.Add(sparse.Index(e[1]), sparse.Index(e[0]), 1)
	}
	got, err = TriangleCount(coo.ToCSR(), nil, testCfg())
	if err != nil || got != 0 {
		t.Errorf("square triangles = %d (%v), want 0", got, err)
	}
}

// TestTriangleCountErrors: an asymmetric input is ErrInvalidMatrix from
// the symmetry check, whether checked in the call or remembered, and a
// cancelled context is ErrCanceled, each with a count of 0. Of the two
// directed inputs, the first holds a lower-triangle entry, so the view
// would read a wedge of it; the second holds only upper-triangle
// entries, so the view would read an empty triangle and count 0 without
// the check.
func TestTriangleCountErrors(t *testing.T) {
	directed := map[string]*sparse.CSR[float64]{
		"1→0,0→2,1→2": fromEdges(3, [][2]int{{1, 0}, {0, 2}, {1, 2}}),
		"0→1,1→2,0→2": fromEdges(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := smallGraph(5)
	defer core.SetTileCrossoverForTest(core.TileCrossover())
	for _, crossover := range []int64{productionCrossover, 0} {
		core.SetTileCrossoverForTest(crossover)
		for name, d := range directed {
			var learned Symmetry
			for memo, sym := range map[string]*Symmetry{"nil": nil, "learned": &learned} {
				for range 2 {
					if got, err := TriangleCount(d, sym, testCfg()); got != 0 || !errors.Is(err, core.ErrInvalidMatrix) {
						t.Errorf("crossover=%d asymmetric %s sym=%s: %d, %v; want 0, ErrInvalidMatrix", crossover, name, memo, got, err)
					}
				}
			}
		}
		cfg := testCfg()
		cfg.Context = ctx
		if got, err := TriangleCount(a, nil, cfg); got != 0 || !errors.Is(err, core.ErrCanceled) {
			t.Errorf("crossover=%d cancelled: %d, %v; want 0, ErrCanceled", crossover, got, err)
		}
	}
}

func TestKTrussK3IsTriangleEdges(t *testing.T) {
	// The 3-truss keeps exactly the edges with at least one triangle.
	a := smallGraph(99)
	res, err := KTruss(a, nil, 3, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// k-truss iterates, so every kept edge needs support >= 1 within the
	// truss, not merely in the original graph.
	finalSupport, err := core.MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, res.Truss, res.Truss, res.Truss, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Truss.Rows; i++ {
		for _, j := range res.Truss.RowCols(i) {
			if finalSupport.At(i, j) < 1 {
				t.Fatalf("3-truss edge (%d,%d) has no triangle", i, j)
			}
		}
	}
	// Monotonicity: the truss is a subgraph.
	if res.Truss.NNZ() > a.NNZ() {
		t.Error("truss grew")
	}
}

func TestKTrussCompleteGraph(t *testing.T) {
	// K6: every edge has 4 triangles, so the 6-truss (need >= 4) is K6
	// itself and the 7-truss is empty.
	coo := sparse.NewCOO[float64](6, 6, 30)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i != j {
				coo.Add(sparse.Index(i), sparse.Index(j), 1)
			}
		}
	}
	k6 := coo.ToCSR()
	res, err := KTruss(k6, nil, 6, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != 15 {
		t.Errorf("6-truss of K6 has %d edges, want 15", res.Edges)
	}
	res, err = KTruss(k6, nil, 7, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != 0 {
		t.Errorf("7-truss of K6 has %d edges, want 0", res.Edges)
	}
}

func TestKTrussRejectsBadK(t *testing.T) {
	for _, k := range []int{2, 0, -1} {
		if res, err := KTruss(smallGraph(1), nil, k, testCfg()); res != nil || !errors.Is(err, core.ErrConfig) {
			t.Errorf("k=%d: %v, %v; want nil, ErrConfig", k, res, err)
		}
	}
}

// bruteBFS computes hop distances with a simple queue.
func bruteBFS(a *sparse.CSR[float64], src int) []int32 {
	level := make([]int32, a.Rows)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range a.RowCols(u) {
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return level
}

func TestBFSMatchesBruteForce(t *testing.T) {
	for _, dir := range []Direction{Push, Pull, Auto} {
		f := func(seed uint64) bool {
			a := graphgen.ErdosRenyi(50, 120, seed)
			src := int(seed % 50)
			got, err := BFS(a, nil, src, dir)
			if err != nil {
				return false
			}
			want := bruteBFS(a, src)
			for v := range want {
				if got.Level[v] != want[v] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("dir=%v: %v", dir, err)
		}
	}
}

// TestBFSDirected runs BFS in every direction mode on directed graphs,
// where pull would read out-neighbourhoods as in-neighbourhoods: the
// three-vertex graph 0→1, 2→0 (from 0, vertex 1 is at level 1 and 2 is
// unreachable) and random directed graphs, against a plain queue BFS.
func TestBFSDirected(t *testing.T) {
	coo := sparse.NewCOO[float64](3, 3, 2)
	coo.Add(0, 1, 1)
	coo.Add(2, 0, 1)
	graphs := []*sparse.CSR[float64]{coo.ToCSR()}
	for seed := uint64(1); seed <= 10; seed++ {
		graphs = append(graphs, directed(graphgen.ErdosRenyi(60, 400, seed)))
	}
	for gi, a := range graphs {
		t.Run(fmt.Sprintf("graph=%d", gi), func(t *testing.T) {
			for _, dir := range []Direction{Push, Pull, Auto} {
				for _, src := range []int{0, a.Rows / 2} {
					got, err := BFS(a, nil, src, dir)
					if err != nil {
						t.Fatal(err)
					}
					if want := bruteBFS(a, src); !slices.Equal(got.Level, want) {
						t.Fatalf("dir=%v, src=%d: levels %v, want %v", dir, src, got.Level, want)
					}
				}
			}
		})
	}
}

func TestBFSPathGraph(t *testing.T) {
	// 0-1-2-3-4 path: levels are the indices.
	coo := sparse.NewCOO[float64](5, 5, 8)
	for i := 0; i < 4; i++ {
		coo.Add(sparse.Index(i), sparse.Index(i+1), 1)
		coo.Add(sparse.Index(i+1), sparse.Index(i), 1)
	}
	res, err := BFS(coo.ToCSR(), nil, 0, Auto)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Level {
		if l != int32(i) {
			t.Errorf("level[%d] = %d, want %d", i, l, i)
		}
	}
	if res.Visited != 5 {
		t.Errorf("visited %d, want 5", res.Visited)
	}
}

// TestBFSSeveralFrontierParents exercises the pull loop's early exit on
// the graph 5–3, 5–4, 0–3, 0–4, 1–0, 1–4, 2–1 from vertex 5. Vertex 0
// has two parents on level 1, so a pull that did not stop at the first
// would reach it twice and count 7 visited. Vertex 1's first neighbour,
// 0, is set to level 2 earlier in the same pull loop, so a test of
// "reached" rather than "on the previous level" would put vertex 2 on
// level 2.
func TestBFSSeveralFrontierParents(t *testing.T) {
	coo := sparse.NewCOO[float64](6, 6, 14)
	for _, e := range [][2]sparse.Index{{5, 3}, {5, 4}, {0, 3}, {0, 4}, {1, 0}, {1, 4}, {2, 1}} {
		coo.Add(e[0], e[1], 1)
		coo.Add(e[1], e[0], 1)
	}
	a := coo.ToCSR()
	want := []int32{2, 2, 3, 1, 1, 0}
	for _, dir := range []Direction{Push, Pull, Auto} {
		res, err := BFS(a, nil, 5, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Level, want) {
			t.Errorf("dir=%v: levels %v, want %v", dir, res.Level, want)
		}
		if res.Visited != 6 || res.Pushes+res.Pulls != 4 {
			t.Errorf("dir=%v: visited %d over %d push and %d pull levels, want 6 over 4", dir, res.Visited, res.Pushes, res.Pulls)
		}
		if dir == Pull && res.Pulls != 4 {
			t.Errorf("forced pull took %d pull levels, want 4", res.Pulls)
		}
	}
}

// TestBFSAllocs pins what a call allocates: the result, its level
// array, the reached-vertex arena and, unless the call pushes every
// level, the symmetry check's cursor — a count that grows neither with
// n nor with the number of levels.
func TestBFSAllocs(t *testing.T) {
	small, large := graphgen.ErdosRenyi(500, 2000, 7), graphgen.ErdosRenyi(5000, 20000, 7)
	for _, dir := range []Direction{Push, Pull, Auto} {
		var base float64
		for _, a := range []*sparse.CSR[float64]{small, large} {
			got := testing.AllocsPerRun(20, func() {
				if _, err := BFS(a, nil, 0, dir); err != nil {
					t.Fatal(err)
				}
			})
			if base == 0 {
				base = got
			}
			if got != base || got > 4 {
				t.Errorf("n=%d, dir=%v: %.0f allocations per call, want %.0f and at most 4", a.Rows, dir, got, base)
			}
		}
	}
	if res, _ := BFS(large, nil, 0, Auto); res.Pushes == 0 || res.Pulls == 0 {
		t.Errorf("auto on n=%d took %d push and %d pull levels, want both kinds", large.Rows, res.Pushes, res.Pulls)
	}
}

// TestBFSWithKnownSymmetry: a search told a's symmetry by a Symmetry
// returns what a search that checks it returns — levels, Visited, Pushes
// and Pulls — on symmetric graphs (answer known before the call, and
// learned by an earlier call) and on a directed one, under every
// direction.
func TestBFSWithKnownSymmetry(t *testing.T) {
	graphs := map[string]*sparse.CSR[float64]{
		"rmat":     graphgen.RMAT(10, 8, 0.57, 0.19, 0.19, 5),
		"road":     graphgen.RoadNetwork(30, 30, 0.95, 5),
		"er":       graphgen.ErdosRenyi(2000, 8000, 5),
		"directed": fromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}}),
	}
	for name, a := range graphs {
		var known, learned Symmetry
		known.Set(sparse.IsSymmetric(a))
		for _, dir := range []Direction{Push, Pull, Auto} {
			for _, src := range []int{0, a.Rows / 2, a.Rows - 1} {
				want, err := BFS(a, nil, src, dir)
				if err != nil {
					t.Fatal(err)
				}
				for memo, sym := range map[string]*Symmetry{"known": &known, "learned": &learned} {
					got, err := BFS(a, sym, src, dir)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Level, want.Level) || got.Visited != want.Visited ||
						got.Pushes != want.Pushes || got.Pulls != want.Pulls {
						t.Errorf("%s %s dir=%v src=%d: %+v, want %+v", name, memo, dir, src, *got, *want)
					}
				}
			}
		}
	}
}

func TestBFSErrors(t *testing.T) {
	a := smallGraph(3)
	if _, err := BFS(a, nil, -1, Push); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := BFS(a, nil, a.Rows, Push); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// bruteBC is Brandes' algorithm implemented directly for the oracle.
func bruteBC(a *sparse.CSR[float64], sources []int) []float64 {
	n := a.Rows
	bc := make([]float64, n)
	for _, s := range sources {
		sigma := make([]float64, n)
		dist := make([]int32, n)
		delta := make([]float64, n)
		for i := range dist {
			dist[i] = -1
		}
		sigma[s] = 1
		dist[s] = 0
		var order []int
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for _, v := range a.RowCols(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, int(v))
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		for p := len(order) - 1; p >= 0; p-- {
			u := order[p]
			for _, v := range a.RowCols(u) {
				if dist[v] == dist[u]+1 {
					delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
				}
			}
			if u != s {
				bc[u] += delta[u]
			}
		}
	}
	return bc
}

func TestBetweennessCentralityPath(t *testing.T) {
	// Path 0-1-2: vertex 1 lies on the single shortest path between the
	// endpoints; from all sources its unnormalized BC is 2 (1 from each
	// direction).
	coo := sparse.NewCOO[float64](3, 3, 4)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(1, 2, 1)
	coo.Add(2, 1, 1)
	a := coo.ToCSR()
	bc, err := BetweennessCentrality(a, []int{0, 1, 2}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if bc[1] != 2 || bc[0] != 0 || bc[2] != 0 {
		t.Errorf("bc = %v, want [0 2 0]", bc)
	}
}

func TestTriangleCountRandomizedConfigs(t *testing.T) {
	// Triangle counts must be invariant across kernel configurations.
	a := graphgen.RMAT(8, 8, 0.57, 0.19, 0.19, 12345)
	want := bruteTriangles(a)
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		cfg := testCfg()
		cfg.Iteration = core.IterationSpace(r.Intn(4))
		cfg.Tiles = r.Intn(32) + 1
		cfg.MarkerBits = []int{8, 16, 32, 64}[r.Intn(4)]
		got, err := TriangleCount(a, nil, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if got != want {
			t.Fatalf("%v: count %d, want %d", cfg, got, want)
		}
	}
}
