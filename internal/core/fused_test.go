package core

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// productOperands builds a random masked product M ⊙ (A×B) with
// non-square shapes so row/column mixups cannot cancel out.
func productOperands(seed int64) (m, a, b *sparse.CSR[float64]) {
	r := rand.New(rand.NewSource(seed))
	const rows, inner, cols = 61, 47, 53
	a = randMatrix(rows, inner, 0.12, r)
	b = randMatrix(inner, cols, 0.12, r)
	m = randMatrix(rows, cols, 0.2, r)
	return m, a, b
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
		got, err := MaskedSpGEMMSelectInto[float64](sr, nil, a, a, a, cfg, sel)
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
	m1, a, b := productOperands(17)
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

// TestFusedStreamBufferFitsWidestRow pins the staging of a streaming
// run: every row reaches the sink in its worker's buffer already wide
// enough for the widest mask row, so no gather grows the buffer and a
// warm run allocates the same whichever tiles each worker claims.
func TestFusedStreamBufferFitsWidestRow(t *testing.T) {
	a := randGraphLocal(300, 6, 11)
	widest := 0
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		widest = max(widest, len(cols))
	}
	for _, it := range []IterationSpace{Vanilla, MaskLoad, CoIter, Hybrid} {
		t.Run(it.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Tiles = 8
			cfg.Workers = 3
			cfg.Iteration = it
			cfg.Engine = exec.New(exec.Config{})
			var rows, short atomic.Int64
			sink := func(_ int, cols []sparse.Index, vals []float64) {
				rows.Add(1)
				if cap(cols) < widest || cap(vals) < widest {
					short.Add(1)
				}
			}
			for range 2 {
				if err := MaskedSpGEMMStream[float64](semiring.PlusPair[float64]{}, a, a, a, cfg, sink); err != nil {
					t.Fatal(err)
				}
			}
			if rows.Load() == 0 {
				t.Fatal("no row reached the sink")
			}
			if n := short.Load(); n != 0 {
				t.Errorf("%d of %d rows arrived in a buffer narrower than the widest mask row (%d)", n, rows.Load(), widest)
			}
		})
	}
}

// TestFusedRunsCountKeptEntries: a fused run's Totals.Gathered counts
// what its sink kept — a select's surviving entries, a stream's
// delivered ones — not what the row kernels produced.
func TestFusedRunsCountKeptEntries(t *testing.T) {
	m1, a, b := productOperands(23)
	rec := obs.NewRecorder()
	cfg := DefaultConfig()
	cfg.Tiles = 4
	cfg.Workers = 2
	cfg.Recorder = rec

	full, err := MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, m1, a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.Reset()
	c, err := MaskedSpGEMMSelectInto[float64](semiring.PlusPair[float64]{}, nil, m1, a, b, cfg,
		func(v float64) (float64, bool) { return v, v >= 2 })
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Stats().Totals.Gathered; got != c.NNZ() || got == 0 || got == full.NNZ() {
		t.Fatalf("select gathered %d, kept %d of %d; want the kept count, some dropped", got, c.NNZ(), full.NNZ())
	}

	rec.Reset()
	var delivered atomic.Int64
	if err := MaskedSpGEMMStream[float64](semiring.PlusTimes[float64]{}, m1, a, b, cfg,
		func(_ int, cols []sparse.Index, _ []float64) { delivered.Add(int64(len(cols))) }); err != nil {
		t.Fatal(err)
	}
	if got := rec.Stats().Totals.Gathered; got != delivered.Load() || got == 0 {
		t.Fatalf("stream gathered %d, delivered %d", got, delivered.Load())
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
