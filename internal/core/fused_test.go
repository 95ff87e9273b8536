package core

import (
	"fmt"
	"math/rand"
	"testing"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// chainOperands builds a random fused-chain problem
// D = M2 ⊙ ((M1 ⊙ (A×B)) × C) with non-square shapes so row/column
// mixups cannot cancel out.
func chainOperands(seed int64) (m1, a, b, m2, c *sparse.CSR[float64]) {
	r := rand.New(rand.NewSource(seed))
	const m, k, n, q = 61, 47, 53, 43
	a = randMatrix(m, k, 0.12, r)
	b = randMatrix(k, n, 0.12, r)
	m1 = randMatrix(m, n, 0.2, r)
	c = randMatrix(n, q, 0.12, r)
	m2 = randMatrix(m, q, 0.2, r)
	return
}

// materializedChain is the reference two-call sequence the fused chain
// must match bit for bit.
func materializedChain(t *testing.T, m1, a, b, m2, c *sparse.CSR[float64], cfg Config) *sparse.CSR[float64] {
	t.Helper()
	sr := semiring.PlusTimes[float64]{}
	mid, err := MaskedSpGEMM[float64](sr, m1, a, b, cfg)
	if err != nil {
		t.Fatalf("materialized stage 1: %v", err)
	}
	want, err := MaskedSpGEMM[float64](sr, m2, mid, c, cfg)
	if err != nil {
		t.Fatalf("materialized stage 2: %v", err)
	}
	return want
}

// setFuseBudget pins the fused staging budget for the rest of the test.
func setFuseBudget(t testing.TB, bytes int64) {
	t.Helper()
	old := SetFuseTileBudgetForTest(bytes)
	t.Cleanup(func() { SetFuseTileBudgetForTest(old) })
}

// TestFusedChainMatchesMaterialized pins bit-identical fused output
// across all three schedules × both tilings × engine/engineless × both
// fusion modes (staged via the production budget, streamed via a 1-byte
// budget that every tile exceeds). The fused counters prove each pass
// ran in the mode it names.
func TestFusedChainMatchesMaterialized(t *testing.T) {
	m1, a, b, m2, c := chainOperands(7)
	sr := semiring.PlusTimes[float64]{}
	eng := exec.New(exec.Config{})
	rec := obs.NewRecorder()
	production := fuseTileBudget
	setFuseBudget(t, production)
	for _, schedule := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
		for _, tl := range []tiling.Strategy{tiling.Uniform, tiling.FlopBalanced} {
			for _, withEngine := range []bool{false, true} {
				for mode, budget := range []int64{production, 1} {
					SetFuseTileBudgetForTest(budget)
					cfg := DefaultConfig()
					cfg.Schedule = schedule
					cfg.Tiling = tl
					cfg.Tiles = 7
					cfg.Workers = 3
					cfg.Recorder = rec
					if withEngine {
						cfg.Engine = eng
					}
					name := fmt.Sprintf("%v/%v/engine=%v/budget=%d", schedule, tl, withEngine, budget)
					want := materializedChain(t, m1, a, b, m2, c, cfg)
					rec.Reset()
					got, err := FusedMaskedSpGEMM[float64](sr, m1, a, b, m2, c, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := got.Check(); err != nil {
						t.Fatalf("%s: malformed result: %v", name, err)
					}
					if !sparse.Equal(want, got) {
						t.Fatalf("%s: fused chain differs from materialize-then-multiply", name)
					}
					f := rec.Stats().Fused
					if staged := mode == 0; (f.StagedTiles > 0) != staged || (f.StreamedTiles > 0) == staged {
						t.Fatalf("%s: staged/streamed tiles = %d/%d, want all %s", name,
							f.StagedTiles, f.StreamedTiles, map[bool]string{true: "staged", false: "streamed"}[staged])
					}
				}
			}
		}
	}
}

// TestFusedChainAllIterationSpaces covers every iteration space and
// accumulator kind from the shared config grid.
func TestFusedChainAllIterationSpaces(t *testing.T) {
	m1, a, b, m2, c := chainOperands(11)
	sr := semiring.PlusTimes[float64]{}
	for _, cfg := range allConfigs() {
		want := materializedChain(t, m1, a, b, m2, c, cfg)
		got, err := FusedMaskedSpGEMM[float64](sr, m1, a, b, m2, c, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if !sparse.Equal(want, got) {
			t.Fatalf("%v: fused chain differs from materialize-then-multiply", cfg)
		}
	}
}

// TestFusedChainEmptyMaskRows exercises the dead-row skip: rows whose
// M2 row is empty must not disturb neighbors, and an all-empty M2
// yields an empty result.
func TestFusedChainEmptyMaskRows(t *testing.T) {
	m1, a, b, m2, c := chainOperands(13)
	sr := semiring.PlusTimes[float64]{}
	cfg := DefaultConfig()
	cfg.Tiles = 5
	cfg.Workers = 2

	// Blank out half of M2's rows.
	coo := sparse.NewCOO[float64](m2.Rows, m2.Cols, 0)
	for i := 0; i < m2.Rows; i += 2 {
		cols, vals := m2.Row(i)
		for p, j := range cols {
			coo.Add(sparse.Index(i), j, vals[p])
		}
	}
	sparseM2 := coo.ToCSR()
	want := materializedChain(t, m1, a, b, sparseM2, c, cfg)
	got, err := FusedMaskedSpGEMM[float64](sr, m1, a, b, sparseM2, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(want, got) {
		t.Fatal("fused chain with empty M2 rows differs from reference")
	}

	empty := sparse.NewCSR[float64](m2.Rows, m2.Cols, 0)
	got, err = FusedMaskedSpGEMM[float64](sr, m1, a, b, empty, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Fatalf("empty M2 produced %d entries, want 0", got.NNZ())
	}
}

// TestFusedSelectMatchesFilter pins multiply+select against the
// materialize-then-filter reference on the k-truss shape S = A ⊙ (A×A).
func TestFusedSelectMatchesFilter(t *testing.T) {
	a := randGraphLocal(90, 5, 3)
	sr := semiring.PlusPair[float64]{}
	const need = 2.0
	sel := func(v float64) (float64, bool) { return 1, v >= need }
	for _, withEngine := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Tiles = 6
		cfg.Workers = 3
		if withEngine {
			cfg.Engine = exec.New(exec.Config{})
		}
		support, err := MaskedSpGEMM[float64](sr, a, a, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := sparse.NewCSR[float64](a.Rows, a.Cols, support.NNZ())
		var rowCols []sparse.Index
		var rowVals []float64
		for i := 0; i < support.Rows; i++ {
			cols, vals := support.Row(i)
			rowCols = rowCols[:0]
			rowVals = rowVals[:0]
			for p, j := range cols {
				if v, ok := sel(vals[p]); ok {
					rowCols = append(rowCols, j)
					rowVals = append(rowVals, v)
				}
			}
			want.AppendRow(i, rowCols, rowVals)
		}
		got, err := MaskedSpGEMMSelect[float64](sr, a, a, a, cfg, sel)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(want, got) {
			t.Fatalf("engine=%v: fused select differs from materialize-then-filter", withEngine)
		}
	}
}

// TestFusedStreamMatchesRows pins multiply+stream: rows delivered to
// the sink (concurrently, row-disjoint) must reassemble into exactly
// the materialized product.
func TestFusedStreamMatchesRows(t *testing.T) {
	m1, a, b, _, _ := chainOperands(17)
	sr := semiring.PlusTimes[float64]{}
	cfg := DefaultConfig()
	cfg.Tiles = 6
	cfg.Workers = 3
	want, err := MaskedSpGEMM[float64](sr, m1, a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		cols []sparse.Index
		vals []float64
	}
	rows := make([]row, a.Rows)
	sink := func(i int, cols []sparse.Index, vals []float64) {
		// Row-disjoint by contract: each i is delivered at most once.
		rows[i] = row{append([]sparse.Index(nil), cols...), append([]float64(nil), vals...)}
	}
	if err := MaskedSpGEMMStream[float64](sr, m1, a, b, cfg, sink); err != nil {
		t.Fatal(err)
	}
	coo := sparse.NewCOO[float64](want.Rows, want.Cols, want.NNZ())
	for i, r := range rows {
		for p, j := range r.cols {
			coo.Add(sparse.Index(i), j, r.vals[p])
		}
	}
	got := coo.ToCSR()
	if !sparse.Equal(want, got) {
		t.Fatal("streamed rows differ from materialized product")
	}
}

// TestFusedCounters checks the stats/v1 fused block: chain, select and
// stream runs each stamp their counters, and the chain's staged vs
// streamed tile split follows the budget.
func TestFusedCounters(t *testing.T) {
	m1, a, b, m2, c := chainOperands(23)
	sr := semiring.PlusTimes[float64]{}
	rec := obs.NewRecorder()
	cfg := DefaultConfig()
	cfg.Tiles = 4
	cfg.Workers = 2
	cfg.Recorder = rec

	if _, err := FusedMaskedSpGEMM[float64](sr, m1, a, b, m2, c, cfg); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Fused.ChainRuns != 1 {
		t.Fatalf("ChainRuns = %d, want 1", st.Fused.ChainRuns)
	}
	if st.Fused.StagedTiles == 0 || st.Fused.StreamedTiles != 0 {
		t.Fatalf("default budget: staged/streamed = %d/%d, want all staged",
			st.Fused.StagedTiles, st.Fused.StreamedTiles)
	}
	if st.Fused.MidEntries == 0 || st.Fused.MidBytes != st.Fused.MidEntries*12 {
		t.Fatalf("MidEntries/MidBytes = %d/%d, want nonzero with 12-byte entries",
			st.Fused.MidEntries, st.Fused.MidBytes)
	}
	lastSeq := st.Seq

	rec.Reset()
	setFuseBudget(t, 1)
	if _, err := FusedMaskedSpGEMM[float64](sr, m1, a, b, m2, c, cfg); err != nil {
		t.Fatal(err)
	}
	st = rec.Stats()
	if st.Fused.StreamedTiles == 0 || st.Fused.StagedTiles != 0 {
		t.Fatalf("1-byte budget: staged/streamed = %d/%d, want all streamed",
			st.Fused.StagedTiles, st.Fused.StreamedTiles)
	}
	_ = lastSeq

	rec.Reset()
	selCfg := cfg
	if _, err := MaskedSpGEMMSelect[float64](semiring.PlusPair[float64]{}, m1, a, b, selCfg,
		func(v float64) (float64, bool) { return v, v >= 2 }); err != nil {
		t.Fatal(err)
	}
	st = rec.Stats()
	if st.Fused.SelectRuns != 1 || st.Fused.SelectKept+st.Fused.SelectDropped == 0 {
		t.Fatalf("select counters = %+v, want SelectRuns=1 and kept+dropped > 0", st.Fused)
	}

	rec.Reset()
	if err := MaskedSpGEMMStream[float64](sr, m1, a, b, cfg,
		func(int, []sparse.Index, []float64) {}); err != nil {
		t.Fatal(err)
	}
	st = rec.Stats()
	if st.Fused.StreamRuns != 1 || st.Fused.MidEntries == 0 {
		t.Fatalf("stream counters = %+v, want StreamRuns=1 and MidEntries > 0", st.Fused)
	}
	if ls, ok := rec.LastRun(); !ok || ls.Fused.StreamRuns != 1 {
		t.Fatalf("LastRun fused block = %+v ok=%v, want the stream run", ls.Fused, ok)
	}
}

// randGraphLocal mirrors the external test package's random simple
// graph builder for internal-package tests.
func randGraphLocal(n, deg int, seed int64) *sparse.CSR[float64] {
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
	for p := range a.Val {
		a.Val[p] = 1
	}
	return a
}
