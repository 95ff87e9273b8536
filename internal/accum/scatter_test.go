package accum

import (
	"fmt"
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
//
// window > 0 runs the dense accumulator over a window of that many of
// the 96 columns: masks then alternate between rows that fit the window
// at a random offset (so lo moves, across marker wraps too) and rows
// wider than it (so they spill to a table that grows), B columns fall
// below lo and at or past lo+window, masked rows also take co-iteration
// Updates on their mask columns, and unmasked rows stay inside the
// window at column 0 — the full-width-only case.
func diffScatter[S semiring.Semiring[float64]](t *testing.T, sr S, kind Kind, bits, window int) {
	const n, rows = 96, 600
	r := rand.New(rand.NewSource(int64(kind)<<8 | int64(bits) | int64(window)<<16))
	mk := func() Accumulator[float64] {
		if window > 0 {
			return NewWindow[float64](sr, window, 2, bits)
		}
		return New[float64](kind, sr, n, 2, bits)
	}
	ref, bat := mk(), mk()
	ref.(Instrumented).EnableStats()
	bat.(Instrumented).EnableStats()
	for row := 0; row < rows; row++ {
		mask := sortedMask(r, n, 1+r.Intn(24))
		if window > 0 && row%2 == 0 {
			// A row that fits the window, at an offset that moves lo.
			off := r.Intn(n - window + 1)
			mask = sortedMask(r, window, 1+r.Intn(window))
			for p := range mask {
				mask[p] += sparse.Index(off)
			}
		}
		masked := row%3 != 0
		if window > 0 && !masked {
			mask = sortedMask(r, window, 1+r.Intn(window))
		}
		ref.BeginRow()
		bat.BeginRow()
		if masked {
			ref.LoadMask(mask)
			bat.LoadMask(mask)
		}
		for k := r.Intn(5); k >= 0; k-- {
			aik := r.NormFloat64()
			if !masked {
				width := n
				if window > 0 {
					width = window
				}
				cols, vals := randRow(r, width, r.Intn(40))
				for p, j := range cols {
					ref.Update(j, sr.Times(aik, vals[p]))
				}
				bat.Scatter(aik, cols, vals)
				continue
			}
			if window > 0 && k%2 == 1 {
				// Co-iteration: one Update per mask column matched.
				for _, j := range mask {
					if r.Intn(3) == 0 {
						x := sr.Times(aik, r.NormFloat64())
						ref.Update(j, x)
						bat.Update(j, x)
					}
				}
				continue
			}
			cols, vals := randRow(r, n, r.Intn(40))
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
	if (kind == HashKind || kind == HashExplicitKind || window > 0) && st.Grows == 0 {
		t.Error("hash table never grew: the mid-batch grow went untested")
	}
	if window > 0 && (st.Spills == 0 || st.Spills >= rows/2) {
		t.Errorf("%d of %d rows spilled: windowed and spilled rows were not interleaved", st.Spills, rows)
	}
}

// TestScatterMatchesPerEntry is the batched contract's differential
// test, over every kind and marker width and two semirings — one whose
// Times reads both operands and whose Plus is order-sensitive, one whose
// Plus is not addition at all — and over a dense window of 24 of the 96
// columns at every marker width.
func TestScatterMatchesPerEntry(t *testing.T) {
	type scatterCase struct {
		name         string
		kind         Kind
		bits, window int
	}
	var cases []scatterCase
	for _, cfg := range allKinds() {
		cases = append(cases, scatterCase{cfg.name, cfg.kind, cfg.bits, 0})
	}
	for _, bits := range []int{8, 16, 32, 64} {
		cases = append(cases, scatterCase{fmt.Sprintf("Window24-%d", bits), DenseKind, bits, 24})
	}
	for _, c := range cases {
		t.Run(c.name+"/PlusTimes", func(t *testing.T) {
			diffScatter(t, semiring.PlusTimes[float64]{}, c.kind, c.bits, c.window)
		})
		t.Run(c.name+"/MinPlus", func(t *testing.T) {
			diffScatter(t, semiring.MinPlus[float64]{Inf: math.Inf(1)}, c.kind, c.bits, c.window)
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

// TestWindowSpillSeams pins the spill table behind the two seams the
// engine reaches accumulators through: the AccumGrow hook fires on a
// spill-table grow (a planned table and one built on first sight alike),
// and CheckClean audits the spill table along with the window.
func TestWindowSpillSeams(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	cols := make([]sparse.Index, 64)
	for p := range cols {
		cols[p] = sparse.Index(p)
	}
	for _, spillCap := range []int64{2, 0} {
		d := NewDenseWindow[float64, semiring.PlusTimes[float64], uint32](sr, 8, spillCap)
		fired := 0
		d.SetGrowHook(func() { fired++ })
		d.BeginRow()
		d.LoadMask(cols[:16]) // spans 16 > 8: spills
		for _, j := range cols {
			d.Update(j, 1) // 64 entries outgrow either table
		}
		if fired == 0 || d.Spills != 1 {
			t.Fatalf("spillCap %d: %d grow hooks, %d spills; want both", spillCap, fired, d.Spills)
		}
		if err := d.CheckClean(); err != nil {
			t.Fatalf("spillCap %d: %v", spillCap, err)
		}
		d.spill.vals = d.spill.vals[:1]
		if d.CheckClean() == nil {
			t.Fatalf("spillCap %d: CheckClean missed a broken spill table", spillCap)
		}
	}
}
