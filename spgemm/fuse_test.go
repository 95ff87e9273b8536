package spgemm_test

import (
	"errors"
	"math/rand"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/spgemm"
)

// randMatrixT builds a deterministic random matrix through the public
// triple constructor.
func randMatrixT(t *testing.T, rows, cols int, density float64, seed int64) *spgemm.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var trips []spgemm.Triple
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				trips = append(trips, spgemm.Triple{Row: i, Col: j, Val: rng.Float64()*4 - 2})
			}
		}
	}
	m, err := spgemm.FromTriples(rows, cols, trips)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func chainOps(t *testing.T, seed int64) (m1, a, b, m2, c *spgemm.Matrix) {
	t.Helper()
	m, k, n, q := 37, 29, 31, 23
	a = randMatrixT(t, m, k, 0.15, seed)
	b = randMatrixT(t, k, n, 0.2, seed+1)
	m1 = randMatrixT(t, m, n, 0.25, seed+2)
	c = randMatrixT(t, n, q, 0.2, seed+3)
	m2 = randMatrixT(t, m, q, 0.25, seed+4)
	return
}

func TestMxMChainFusedMatchesUnfused(t *testing.T) {
	production := core.SetFuseTileBudgetForTest(1)
	t.Cleanup(func() { core.SetFuseTileBudgetForTest(production) })
	for _, seed := range []int64{1, 7} {
		m1, a, b, m2, c := chainOps(t, seed)
		opts := spgemm.Defaults()
		opts.Tiles = 6
		opts.Workers = 2
		want, err := spgemm.MxMChain(m1, a, b, m2, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Fuse = true
		for _, budget := range []int64{production, 1} { // staged and fully streamed
			core.SetFuseTileBudgetForTest(budget)
			got, err := spgemm.MxMChain(m1, a, b, m2, c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d budget %d: fused chain differs", seed, budget)
			}
		}
	}
}

func TestMxMChainWithEngineAndStats(t *testing.T) {
	m1, a, b, m2, c := chainOps(t, 3)
	opts := spgemm.Defaults()
	opts.Tiles = 4
	opts.Workers = 2
	opts.Fuse = true
	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	opts.Stats = spgemm.NewStatsRecorder()
	want, err := spgemm.MxMChain(m1, a, b, m2, c, spgemm.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := spgemm.MxMChain(m1, a, b, m2, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("pass %d: fused chain differs under engine", i)
		}
	}
	st := opts.Stats.Stats()
	if st.Fused.ChainRuns != 3 {
		t.Fatalf("ChainRuns = %d, want 3", st.Fused.ChainRuns)
	}
	if st.Fused.StagedTiles+st.Fused.StreamedTiles == 0 {
		t.Fatal("no tiles recorded by the fused pipeline")
	}
}

func TestMxMChainRejectsBadShapes(t *testing.T) {
	m1, a, b, m2, _ := chainOps(t, 5)
	bad := randMatrixT(t, 3, 3, 0.5, 9) // wrong inner dimension for C
	opts := spgemm.Defaults()
	opts.Fuse = true
	if _, err := spgemm.MxMChain(m1, a, b, m2, bad, opts); !errors.Is(err, spgemm.ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestKTrussFuseOptionMatches(t *testing.T) {
	a := spgemm.RandomGraph("er", 60, 11).Symmetrize()
	opts := spgemm.Defaults()
	opts.Tiles = 8
	opts.Workers = 2
	want, wantRounds, err := spgemm.KTruss(a, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Fuse = true
	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	got, gotRounds, err := spgemm.KTruss(a, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || gotRounds != wantRounds {
		t.Fatalf("fused k-truss differs (rounds %d vs %d)", gotRounds, wantRounds)
	}
}

func TestBCBatchFuseOptionMatches(t *testing.T) {
	a := spgemm.RandomGraph("er", 40, 13).Symmetrize()
	sources := []int{0, 5, 9}
	opts := spgemm.Defaults()
	opts.Tiles = 8
	opts.Workers = 2
	want, err := spgemm.BetweennessCentralityBatch(a, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Fuse = true
	got, err := spgemm.BetweennessCentralityBatch(a, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if diff := got[v] - want[v]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("bc[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestAdaptiveKappaObservesRuns(t *testing.T) {
	a := spgemm.RandomGraph("er", 80, 17).Symmetrize()
	opts := spgemm.Defaults()
	opts.Tiles = 8
	opts.Workers = 2
	opts.Semiring = spgemm.SRPlusPair
	want, err := spgemm.MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.AdaptiveKappa = true
	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	opts.Stats = spgemm.NewStatsRecorder()
	for i := 0; i < 6; i++ {
		got, err := spgemm.MxM(a, a, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("pass %d: adaptive κ changed the result", i)
		}
	}
	st := opts.Stats.Stats()
	if st.Recal.Updates != 6 {
		t.Fatalf("Recal.Updates = %d, want 6", st.Recal.Updates)
	}
	if st.Recal.KappaLast <= 0 {
		t.Fatalf("KappaLast = %v, want > 0", st.Recal.KappaLast)
	}
}

func TestAdaptiveKappaMultiplier(t *testing.T) {
	a := spgemm.RandomGraph("er", 80, 19).Symmetrize()
	opts := spgemm.Defaults()
	opts.Tiles = 8
	opts.Workers = 2
	opts.Semiring = spgemm.SRPlusPair
	want, err := spgemm.MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.AdaptiveKappa = true
	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	opts.Stats = spgemm.NewStatsRecorder()
	mu, err := spgemm.NewMultiplier(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := mu.Multiply()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("pass %d: adaptive multiplier changed the result", i)
		}
	}
	if st, ok := mu.LastStats(); !ok || st.Runs != 1 {
		t.Fatalf("LastStats: ok=%v runs=%d, want per-run snapshot", ok, st.Runs)
	}
	if st := opts.Stats.Stats(); st.Recal.Updates != 5 {
		t.Fatalf("Recal.Updates = %d, want 5", st.Recal.Updates)
	}
}

func TestNewEngineFor(t *testing.T) {
	a := spgemm.RandomGraph("er", 60, 23).Symmetrize()
	opts := spgemm.Defaults()
	if _, err := spgemm.NewEngineFor(a, a, a, opts, spgemm.EngineConfig{RetentionBudget: -1}); !errors.Is(err, spgemm.ErrConfig) {
		t.Fatalf("negative budget: err = %v, want ErrConfig", err)
	}
	eng, err := spgemm.NewEngineFor(a, a, a, opts, spgemm.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Engine = eng
	opts.Semiring = spgemm.SRPlusPair
	if _, err := spgemm.MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
	// A tiny budget must still leave the warm-loop pair.
	eng, err = spgemm.NewEngineFor(a, a, a, opts, spgemm.EngineConfig{RetentionBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil {
		t.Fatal("nil engine")
	}
}
