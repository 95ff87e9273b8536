package core

import (
	"math/rand"
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

// TestFusedCounters checks the stats/v4 fused block: select and stream
// runs each stamp their counters, and a stream's intermediate entries
// are priced at a column index plus a value.
func TestFusedCounters(t *testing.T) {
	m1, a, b := productOperands(23)
	sr := semiring.PlusTimes[float64]{}
	rec := obs.NewRecorder()
	cfg := DefaultConfig()
	cfg.Tiles = 4
	cfg.Workers = 2
	cfg.Recorder = rec

	if _, err := MaskedSpGEMMSelectInto[float64](semiring.PlusPair[float64]{}, nil, m1, a, b, cfg,
		func(v float64) (float64, bool) { return v, v >= 2 }); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
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
	if st.Fused.MidBytes != st.Fused.MidEntries*12 {
		t.Fatalf("MidEntries/MidBytes = %d/%d, want 12-byte entries",
			st.Fused.MidEntries, st.Fused.MidBytes)
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
