package graph

import (
	"context"
	"errors"
	"math"
	"math/rand"
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

func TestTriangleCountMethodsAgreeWithBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		a := smallGraph(seed)
		want := bruteTriangles(a)
		for _, m := range []TriangleMethod{Burkhardt, SandiaLL, Cohen} {
			got, err := TriangleCount(a, m, testCfg())
			if err != nil || got != want {
				return false
			}
		}
		return true
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
	k5 := coo.ToCSR()
	for _, m := range []TriangleMethod{Burkhardt, SandiaLL, Cohen} {
		got, err := TriangleCount(k5, m, testCfg())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got != 10 {
			t.Errorf("%v: K5 triangles = %d, want 10", m, got)
		}
	}

	// A 4-cycle has none.
	coo = sparse.NewCOO[float64](4, 4, 8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		coo.Add(sparse.Index(e[0]), sparse.Index(e[1]), 1)
		coo.Add(sparse.Index(e[1]), sparse.Index(e[0]), 1)
	}
	got, err := TriangleCount(coo.ToCSR(), Burkhardt, testCfg())
	if err != nil || got != 0 {
		t.Errorf("square triangles = %d (%v), want 0", got, err)
	}
}

// TestTriangleCountStreamMatchesAssembled holds the streamed count to
// the assembled one it replaced: for every formulation, the count equals
// the sum of the assembled C = M ⊙ (A×B) over the divisor, on skewed,
// road and uniform graphs, at one and three workers, one-tile and tiled,
// never and always co-iterating. Hybrid rejects κ = 0, so never
// co-iterating is its κ → 0 limit, MaskLoad.
func TestTriangleCountStreamMatchesAssembled(t *testing.T) {
	graphs := []struct {
		name string
		a    *sparse.CSR[float64]
	}{
		{"rmat", graphgen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)},
		{"road", graphgen.RoadNetwork(20, 25, 0.9, 3)},
		{"er", graphgen.ErdosRenyi(400, 3000, 3)},
	}
	iterations := []struct {
		name string
		it   core.IterationSpace
		k    float64
	}{
		{"kappa=0", core.MaskLoad, 1},
		{"kappa=inf", core.Hybrid, math.Inf(1)},
	}
	defer core.SetTileCrossoverForTest(core.TileCrossover())
	sr := semiring.PlusPair[float64]{}
	for _, g := range graphs {
		l, u := sparse.Tril(g.a), sparse.Triu(g.a)
		operands := map[TriangleMethod][3]*sparse.CSR[float64]{
			Burkhardt: {g.a, g.a, g.a}, SandiaLL: {l, l, l}, Cohen: {g.a, l, u},
		}
		divisor := map[TriangleMethod]float64{Burkhardt: 6, SandiaLL: 1, Cohen: 2}
		want := bruteTriangles(g.a)
		for _, crossover := range []int64{productionCrossover, 0} {
			core.SetTileCrossoverForTest(crossover)
			for _, workers := range []int{1, 3} {
				for _, iter := range iterations {
					cfg := testCfg()
					cfg.Workers, cfg.Iteration, cfg.Kappa = workers, iter.it, iter.k
					for _, m := range []TriangleMethod{Burkhardt, SandiaLL, Cohen} {
						op := operands[m]
						c, err := core.MaskedSpGEMM[float64](sr, op[0], op[1], op[2], cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, err := TriangleCount(g.a, m, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if assembled := sparse.SumValues(c) / divisor[m]; float64(got) != assembled || got != want {
							t.Errorf("%s crossover=%d workers=%d %s %v: streamed %d, assembled %v, brute force %d",
								g.name, crossover, workers, iter.name, m, got, assembled, want)
						}
					}
				}
			}
		}
	}
}

// TestTriangleCountErrors: an asymmetric input is ErrInvalidMatrix for
// every method, and a cancelled context is ErrCanceled, each with a
// count of 0. Of the two directed inputs, the first closes one wedge,
// 1/6 of a triangle under Burkhardt and 1/2 under Cohen; the second
// holds only upper-triangle entries, so SandiaLL and Cohen would read
// an empty triangle and count 0 without their symmetry check.
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
		for _, m := range []TriangleMethod{Burkhardt, SandiaLL, Cohen} {
			for name, d := range directed {
				if got, err := TriangleCount(d, m, testCfg()); got != 0 || !errors.Is(err, core.ErrInvalidMatrix) {
					t.Errorf("crossover=%d %v asymmetric %s: %d, %v; want 0, ErrInvalidMatrix", crossover, m, name, got, err)
				}
			}
			cfg := testCfg()
			cfg.Context = ctx
			if got, err := TriangleCount(a, m, cfg); got != 0 || !errors.Is(err, core.ErrCanceled) {
				t.Errorf("crossover=%d %v cancelled: %d, %v; want 0, ErrCanceled", crossover, m, got, err)
			}
		}
	}
}

func TestKTrussK3IsTriangleEdges(t *testing.T) {
	// The 3-truss keeps exactly the edges with at least one triangle.
	a := smallGraph(99)
	res, err := KTruss(a, 3, testCfg())
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
	res, err := KTruss(k6, 6, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != 15 {
		t.Errorf("6-truss of K6 has %d edges, want 15", res.Edges)
	}
	res, err = KTruss(k6, 7, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != 0 {
		t.Errorf("7-truss of K6 has %d edges, want 0", res.Edges)
	}
}

func TestKTrussRejectsBadK(t *testing.T) {
	for _, k := range []int{2, 0, -1} {
		if res, err := KTruss(smallGraph(1), k, testCfg()); res != nil || !errors.Is(err, core.ErrConfig) {
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
	for _, dir := range []core.Direction{core.Push, core.Pull, core.Auto} {
		f := func(seed uint64) bool {
			a := graphgen.ErdosRenyi(50, 120, seed)
			src := int(seed % 50)
			got, err := BFS(a, src, dir, nil)
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

func TestBFSPathGraph(t *testing.T) {
	// 0-1-2-3-4 path: levels are the indices.
	coo := sparse.NewCOO[float64](5, 5, 8)
	for i := 0; i < 4; i++ {
		coo.Add(sparse.Index(i), sparse.Index(i+1), 1)
		coo.Add(sparse.Index(i+1), sparse.Index(i), 1)
	}
	res, err := BFS(coo.ToCSR(), 0, core.Auto, nil)
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

func TestBFSErrors(t *testing.T) {
	a := smallGraph(3)
	if _, err := BFS(a, -1, core.Push, nil); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := BFS(a, a.Rows, core.Push, nil); err == nil {
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

func TestBetweennessCentralityMatchesBrandes(t *testing.T) {
	f := func(seed uint64) bool {
		a := graphgen.ErdosRenyi(25, 60, seed)
		sources := []int{0, 5, 11}
		got, err := BetweennessCentrality(a, sources, nil)
		if err != nil {
			return false
		}
		want := bruteBC(a, sources)
		for v := range want {
			if diff := got[v] - want[v]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBetweennessCentralityBatchMatchesBrandes(t *testing.T) {
	f := func(seed uint64) bool {
		a := graphgen.ErdosRenyi(30, 70, seed)
		sources := []int{0, 7, 13, 21}
		got, err := BetweennessCentralityBatch(a, sources, testCfg())
		if err != nil {
			return false
		}
		want := bruteBC(a, sources)
		for v := range want {
			if diff := got[v] - want[v]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBetweennessCentralityBatchMatchesVector(t *testing.T) {
	a := graphgen.RMAT(7, 6, 0.57, 0.19, 0.19, 77)
	sources := []int{1, 2, 3, 5, 8, 13}
	batch, err := BetweennessCentralityBatch(a, sources, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	vector, err := BetweennessCentrality(a, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range batch {
		if diff := batch[v] - vector[v]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("bc[%d]: batch %v vs vector %v", v, batch[v], vector[v])
		}
	}
}

func TestBetweennessCentralityBatchEdges(t *testing.T) {
	a := smallGraph(5)
	if bc, err := BetweennessCentralityBatch(a, nil, testCfg()); err != nil || len(bc) != a.Rows {
		t.Errorf("empty batch: %v %v", bc, err)
	}
	if _, err := BetweennessCentralityBatch(a, []int{-1}, testCfg()); err == nil {
		t.Error("bad source accepted")
	}
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
	bc, err := BetweennessCentrality(a, []int{0, 1, 2}, nil)
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
		got, err := TriangleCount(a, Burkhardt, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if got != want {
			t.Fatalf("%v: count %d, want %d", cfg, got, want)
		}
	}
}
