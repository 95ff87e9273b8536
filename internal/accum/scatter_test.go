package accum

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// randRow returns count columns below n in arbitrary order (repeats
// allowed: the contract is per entry, not per distinct column) with
// values whose sums depend on the order of addition.
func randRow(r *rand.Rand, n, count int) ([]sparse.Index, []float64) {
	cols := make([]sparse.Index, count)
	vals := make([]float64, count)
	for p := range cols {
		cols[p] = sparse.Index(r.Intn(n))
		vals[p] = r.NormFloat64()
	}
	return cols, vals
}

// sortedMask returns a sorted duplicate-free mask row of up to count
// columns below n.
func sortedMask(r *rand.Rand, n, count int) []sparse.Index {
	mask := make([]sparse.Index, count)
	for p := range mask {
		mask[p] = sparse.Index(r.Intn(n))
	}
	slices.Sort(mask)
	return slices.Compact(mask)
}

// diffScatter drives two accumulators of one configuration through the
// same random rows — ref by the per-entry loop Scatter and ScatterMasked
// stand for, bat by the batched calls — and requires the same hits, the
// same gathered row bit for bit, and the same Stats after every row. 600
// rows wrap an 8-bit marker four times and a 16-bit one never, so both
// sides of the wrap are covered; rowCap 2 makes every unmasked Hash row
// grow its table in the middle of a batch.
func diffScatter[S semiring.Semiring[float64]](t *testing.T, sr S, kind Kind, bits int) {
	const n, rows = 96, 600
	r := rand.New(rand.NewSource(int64(kind)<<8 | int64(bits)))
	ref := New[float64](kind, sr, n, 2, bits)
	bat := New[float64](kind, sr, n, 2, bits)
	ref.(Instrumented).EnableStats()
	bat.(Instrumented).EnableStats()
	for row := 0; row < rows; row++ {
		mask := sortedMask(r, n, 1+r.Intn(24))
		masked := row%3 != 0
		ref.BeginRow()
		bat.BeginRow()
		if masked {
			ref.LoadMask(mask)
			bat.LoadMask(mask)
		}
		for k := r.Intn(5); k >= 0; k-- {
			aik := r.NormFloat64()
			cols, vals := randRow(r, n, r.Intn(40))
			if !masked {
				for p, j := range cols {
					ref.Update(j, sr.Times(aik, vals[p]))
				}
				bat.Scatter(aik, cols, vals)
				continue
			}
			want := 0
			for p, j := range cols {
				if ref.UpdateMasked(j, sr.Times(aik, vals[p])) {
					want++
				}
			}
			if got := bat.ScatterMasked(aik, cols, vals); got != want {
				t.Fatalf("row %d: ScatterMasked admitted %d updates, per-entry loop %d", row, got, want)
			}
		}
		wantCols, wantVals := ref.Gather(mask, nil, nil)
		gotCols, gotVals := bat.Gather(mask, nil, nil)
		if !slices.Equal(gotCols, wantCols) {
			t.Fatalf("row %d (masked=%v): cols %v, per-entry loop %v", row, masked, gotCols, wantCols)
		}
		for p := range wantVals {
			if math.Float64bits(gotVals[p]) != math.Float64bits(wantVals[p]) {
				t.Fatalf("row %d (masked=%v) col %d: %v, per-entry loop %v",
					row, masked, wantCols[p], gotVals[p], wantVals[p])
			}
		}
		if got, want := bat.(Instrumented).AccumStats(), ref.(Instrumented).AccumStats(); got != want {
			t.Fatalf("row %d (masked=%v): stats %+v, per-entry loop %+v", row, masked, got, want)
		}
	}
	st := bat.(Instrumented).AccumStats()
	if bits == 8 && (kind == DenseKind || kind == HashKind) && st.Clears == 0 {
		t.Error("8-bit marker never wrapped: the wrap case went untested")
	}
	if (kind == HashKind || kind == HashExplicitKind) && st.Grows == 0 {
		t.Error("hash table never grew: the mid-batch grow went untested")
	}
}

// TestScatterMatchesPerEntry is the batched contract's differential
// test, over every kind and marker width and two semirings — one whose
// Times reads both operands and whose Plus is order-sensitive, one whose
// Plus is not addition at all.
func TestScatterMatchesPerEntry(t *testing.T) {
	for _, cfg := range allKinds() {
		t.Run(cfg.name+"/PlusTimes", func(t *testing.T) {
			diffScatter(t, semiring.PlusTimes[float64]{}, cfg.kind, cfg.bits)
		})
		t.Run(cfg.name+"/MinPlus", func(t *testing.T) {
			diffScatter(t, semiring.MinPlus[float64]{Inf: math.Inf(1)}, cfg.kind, cfg.bits)
		})
	}
}

// TestScatterGrowHook pins the chaos seam on the batched path: a Scatter
// that outgrows the table fires the grow hook before any state moves,
// and a hook that panics unwinds through Scatter to the caller.
func TestScatterGrowHook(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	cols := make([]sparse.Index, 64)
	for p := range cols {
		cols[p] = sparse.Index(p)
	}
	vals := make([]float64, len(cols))
	for _, acc := range []interface {
		Accumulator[float64]
		GrowHooked
	}{
		NewHash[float64, semiring.PlusTimes[float64], uint32](sr, 2),
		NewHashExplicit[float64, semiring.PlusTimes[float64]](sr, 2),
	} {
		fired := 0
		acc.SetGrowHook(func() { fired++ })
		acc.BeginRow()
		acc.Scatter(1, cols[:10], vals[:10])
		if fired == 0 {
			t.Fatalf("%T: Scatter grew the table without crossing the grow hook", acc)
		}
		// All 64 columns outgrow the table the first ten sized.
		acc.SetGrowHook(func() { panic("injected") })
		acc.BeginRow()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T: panicking grow hook did not unwind through Scatter", acc)
				}
			}()
			acc.Scatter(1, cols, vals)
		}()
	}
}
