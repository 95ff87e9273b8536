package core_test

// Engine-level steady-state checks: these run the real graph workloads
// (k-truss, batched BC) through a shared exec.Engine and pin, via the
// pool counters, that warm iterations construct zero workspaces — every
// checkout is a hit or a steal, every buffer is recycled. They live in
// the external test package so they can drive internal/graph without an
// import cycle.

import (
	"math/rand"
	"sync"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graph"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

func randGraph(n int, deg int, seed int64) *sparse.CSR[float64] {
	r := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO[float64](n, n, int64(n*deg*2))
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			j := r.Intn(n)
			if j == i {
				continue
			}
			coo.Add(sparse.Index(i), sparse.Index(j), 1)
			coo.Add(sparse.Index(j), sparse.Index(i), 1)
		}
	}
	a := coo.ToCSR()
	// Collapse duplicate edges to unit weight (simple graph).
	for p := range a.Val {
		a.Val[p] = 1
	}
	return a
}

// TestSharedEngineConcurrentMultiplies drives independent masked
// multiplies through ONE engine from many goroutines (run under -race by
// `make race`) and checks each result is bit-identical to the serial
// reference.
func TestSharedEngineConcurrentMultiplies(t *testing.T) {
	a := randGraph(150, 4, 3)
	sr := semiring.PlusPair[float64]{}
	serialCfg := core.DefaultConfig()
	serialCfg.Tiles = 8
	want, err := core.MaskedSpGEMM[float64](sr, a, a, a, serialCfg)
	if err != nil {
		t.Fatal(err)
	}

	eng := exec.New(exec.Config{})
	cfg := serialCfg
	cfg.Engine = eng

	const goroutines = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := core.MaskedSpGEMM[float64](sr, a, a, a, cfg)
				if err != nil {
					errs <- err
					return
				}
				if !sparse.Equal(want, got) {
					t.Error("concurrent engine-backed result differs from serial")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Hits == 0 {
		t.Errorf("48 multiplies through one engine recycled nothing: %+v", st)
	}
}

// TestWarmKTrussZeroWorkspaceAllocs pins the steady-state contract on
// the paper's iterative workload: after one cold k-truss run has
// populated the pool, a second identical run constructs zero workspaces
// (no misses) and grows none (no resizes) — every round of every rerun
// recycles pooled buffers.
func TestWarmKTrussZeroWorkspaceAllocs(t *testing.T) {
	a := randGraph(120, 6, 11)
	eng := exec.New(exec.Config{})
	cfg := core.DefaultConfig()
	cfg.Engine = eng
	cfg.Tiles = 8
	cfg.Workers = 2

	cold, err := graph.KTruss(a, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prior := eng.Stats()
	warm, err := graph.KTruss(a, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(cold.Truss, warm.Truss) || cold.Rounds != warm.Rounds {
		t.Fatal("warm k-truss result differs from cold")
	}
	d := eng.Stats().Sub(prior)
	if d.Misses != 0 {
		t.Errorf("warm k-truss constructed %d workspaces, want 0 (%+v)", d.Misses, d)
	}
	if d.Resizes != 0 {
		t.Errorf("warm k-truss grew workspaces %d times, want 0 (%+v)", d.Resizes, d)
	}
	if d.Hits == 0 {
		t.Errorf("warm k-truss recycled nothing: %+v", d)
	}
}

// TestWarmBCBatchZeroWorkspaceAllocs is the same steady-state pin for
// batched betweenness centrality, which alternates the complement-mask
// (dense scratch) and mask (accumulator) kernels — both pools must
// serve the warm run entirely from idle workspaces.
func TestWarmBCBatchZeroWorkspaceAllocs(t *testing.T) {
	a := randGraph(100, 4, 17)
	eng := exec.New(exec.Config{})
	cfg := core.DefaultConfig()
	cfg.Engine = eng
	cfg.Tiles = 4
	cfg.Workers = 2

	sources := []int{0, 3, 7, 11}
	cold, err := graph.BetweennessCentralityBatch(a, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prior := eng.Stats()
	warm, err := graph.BetweennessCentralityBatch(a, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range cold {
		if cold[v] != warm[v] {
			t.Fatalf("warm BC differs at vertex %d: %v vs %v", v, cold[v], warm[v])
		}
	}
	d := eng.Stats().Sub(prior)
	if d.Misses != 0 {
		t.Errorf("warm BC-batch constructed %d workspaces, want 0 (%+v)", d.Misses, d)
	}
	if d.Resizes != 0 {
		t.Errorf("warm BC-batch grew workspaces %d times, want 0 (%+v)", d.Resizes, d)
	}
	if d.Hits == 0 {
		t.Errorf("warm BC-batch recycled nothing: %+v", d)
	}
}

// TestWarmFusedKTrussZeroWorkspaceAllocs pins the steady-state contract
// on the fused formulation: a warm fused k-truss run (one select-fused
// multiply per round, the support matrix never materialized) must serve
// every workspace — including the fused pipeline's tile staging buffers
// — from the pool, constructing and growing nothing.
func TestWarmFusedKTrussZeroWorkspaceAllocs(t *testing.T) {
	a := randGraph(120, 6, 11)
	eng := exec.New(exec.Config{})
	cfg := core.DefaultConfig()
	cfg.Engine = eng
	cfg.Tiles = 8
	cfg.Workers = 2

	cold, err := graph.KTrussFused(a, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prior := eng.Stats()
	warm, err := graph.KTrussFused(a, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(cold.Truss, warm.Truss) || cold.Rounds != warm.Rounds {
		t.Fatal("warm fused k-truss result differs from cold")
	}
	d := eng.Stats().Sub(prior)
	if d.Misses != 0 {
		t.Errorf("warm fused k-truss constructed %d workspaces, want 0 (%+v)", d.Misses, d)
	}
	if d.Resizes != 0 {
		t.Errorf("warm fused k-truss grew workspaces %d times, want 0 (%+v)", d.Resizes, d)
	}
	if d.Hits == 0 {
		t.Errorf("warm fused k-truss recycled nothing: %+v", d)
	}
}

// TestWarmFusedChainZeroWorkspaceAllocs is the same pin for the fused
// two-multiply chain, whose staged intermediate tiles ride per-worker
// workspace buffers rather than a materialized CSR.
func TestWarmFusedChainZeroWorkspaceAllocs(t *testing.T) {
	a := randGraph(100, 5, 29)
	sr := semiring.PlusTimes[float64]{}
	eng := exec.New(exec.Config{})
	cfg := core.DefaultConfig()
	cfg.Engine = eng
	cfg.Tiles = 8
	cfg.Workers = 2

	cold, err := core.FusedMaskedSpGEMM[float64](sr, a, a, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prior := eng.Stats()
	warm, err := core.FusedMaskedSpGEMM[float64](sr, a, a, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(cold, warm) {
		t.Fatal("warm fused chain result differs from cold")
	}
	d := eng.Stats().Sub(prior)
	if d.Misses != 0 {
		t.Errorf("warm fused chain constructed %d workspaces, want 0 (%+v)", d.Misses, d)
	}
	if d.Resizes != 0 {
		t.Errorf("warm fused chain grew workspaces %d times, want 0 (%+v)", d.Resizes, d)
	}
}

// TestWarmFrontierAlgorithmsZeroWorkspaceAllocs covers the vector
// kernels: warm BFS / label-prop CC / SSSP runs against a shared engine
// must serve their dense traversal scratch entirely from the pool.
func TestWarmFrontierAlgorithmsZeroWorkspaceAllocs(t *testing.T) {
	a := randGraph(200, 3, 23)
	eng := exec.New(exec.Config{})

	if _, err := graph.BFS(a, 0, core.Auto, eng); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.ConnectedComponentsLabelProp(a, eng); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.SSSP(a, 0, eng); err != nil {
		t.Fatal(err)
	}
	prior := eng.Stats()
	if _, err := graph.BFS(a, 1, core.Auto, eng); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.ConnectedComponentsLabelProp(a, eng); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.SSSP(a, 1, eng); err != nil {
		t.Fatal(err)
	}
	d := eng.Stats().Sub(prior)
	if d.Misses != 0 {
		t.Errorf("warm frontier runs constructed %d workspaces, want 0 (%+v)", d.Misses, d)
	}
}
