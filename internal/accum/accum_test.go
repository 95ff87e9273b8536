package accum

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// allKinds enumerates every accumulator configuration under test.
func allKinds() []struct {
	kind Kind
	bits int
	name string
} {
	var out []struct {
		kind Kind
		bits int
		name string
	}
	for _, k := range []Kind{DenseKind, HashKind} {
		for _, b := range []int{8, 16, 32, 64} {
			out = append(out, struct {
				kind Kind
				bits int
				name string
			}{k, b, fmt.Sprintf("%v-%d", k, b)})
		}
	}
	out = append(out, struct {
		kind Kind
		bits int
		name string
	}{DenseExplicitKind, 64, "DenseExplicit"})
	out = append(out, struct {
		kind Kind
		bits int
		name string
	}{HashExplicitKind, 64, "HashExplicit"})
	return out
}

func newAcc(kind Kind, bits int, n int, rowCap int64) Accumulator[float64] {
	return New[float64](kind, semiring.PlusTimes[float64]{}, n, rowCap, bits)
}

func TestUpdateThenGather(t *testing.T) {
	for _, cfg := range allKinds() {
		t.Run(cfg.name, func(t *testing.T) {
			acc := newAcc(cfg.kind, cfg.bits, 32, 8)
			acc.BeginRow()
			acc.Update(5, 2)
			acc.Update(3, 1)
			acc.Update(5, 4) // accumulates onto 5
			mask := []sparse.Index{1, 3, 5, 9}
			cols, vals := acc.Gather(mask, nil, nil)
			if len(cols) != 2 || cols[0] != 3 || cols[1] != 5 {
				t.Fatalf("cols = %v, want [3 5]", cols)
			}
			if vals[0] != 1 || vals[1] != 6 {
				t.Fatalf("vals = %v, want [1 6]", vals)
			}
		})
	}
}

func TestUpdateMaskedRespectsMask(t *testing.T) {
	for _, cfg := range allKinds() {
		t.Run(cfg.name, func(t *testing.T) {
			acc := newAcc(cfg.kind, cfg.bits, 32, 8)
			acc.BeginRow()
			mask := []sparse.Index{2, 7}
			acc.LoadMask(mask)
			if acc.UpdateMasked(3, 1) {
				t.Error("update outside the mask accepted")
			}
			if !acc.UpdateMasked(7, 5) {
				t.Error("update inside the mask rejected")
			}
			if !acc.UpdateMasked(7, 2) {
				t.Error("second update inside the mask rejected")
			}
			cols, vals := acc.Gather(mask, nil, nil)
			if len(cols) != 1 || cols[0] != 7 || vals[0] != 7 {
				t.Fatalf("gather = %v %v, want [7] [7]", cols, vals)
			}
		})
	}
}

func TestRowIsolation(t *testing.T) {
	// State from one row must never leak into the next, across many more
	// rows than an 8-bit marker can count without clearing.
	for _, cfg := range allKinds() {
		t.Run(cfg.name, func(t *testing.T) {
			acc := newAcc(cfg.kind, cfg.bits, 64, 16)
			for row := 0; row < 1000; row++ {
				acc.BeginRow()
				j := sparse.Index(row % 64)
				mask := []sparse.Index{j}
				acc.LoadMask(mask)
				// Probe a column the previous rows wrote: must be invisible.
				prev := sparse.Index((row + 63) % 64)
				if prev != j {
					if acc.UpdateMasked(prev, 1) {
						t.Fatalf("row %d: stale mask slot %d accepted", row, prev)
					}
				}
				acc.UpdateMasked(j, float64(row))
				cols, vals := acc.Gather(mask, nil, nil)
				if len(cols) != 1 || cols[0] != j || vals[0] != float64(row) {
					t.Fatalf("row %d: gather = %v %v", row, cols, vals)
				}
			}
		})
	}
}

func TestDenseMarkerOverflowClears(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	d := NewDense[float64, semiring.PlusTimes[float64], uint8](sr, 16)
	for row := 0; row < 300; row++ {
		d.BeginRow()
		d.Update(1, 1)
	}
	if d.Clears == 0 {
		t.Error("uint8 marker never overflowed in 300 rows")
	}
	d64 := NewDense[float64, semiring.PlusTimes[float64], uint64](sr, 16)
	for row := 0; row < 300; row++ {
		d64.BeginRow()
		d64.Update(1, 1)
	}
	if d64.Clears != 0 {
		t.Error("uint64 marker overflowed in 300 rows")
	}
}

func TestHashGrowth(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	h := NewHash[float64, semiring.PlusTimes[float64], uint32](sr, 4)
	h.BeginRow()
	// Insert far more than the sizing hint: the table must grow, not hang.
	for j := sparse.Index(0); j < 1000; j++ {
		h.Update(j, float64(j))
	}
	if h.Grows == 0 {
		t.Fatal("hash table never grew")
	}
	mask := make([]sparse.Index, 1000)
	for j := range mask {
		mask[j] = sparse.Index(j)
	}
	cols, vals := h.Gather(mask, nil, nil)
	if len(cols) != 1000 {
		t.Fatalf("gathered %d entries, want 1000", len(cols))
	}
	for p, j := range cols {
		if vals[p] != float64(j) {
			t.Fatalf("value at %d = %v", j, vals[p])
		}
	}
}

func TestHashGrowthPreservesMaskSlots(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	h := NewHash[float64, semiring.PlusTimes[float64], uint16](sr, 2)
	h.BeginRow()
	mask := make([]sparse.Index, 200)
	for j := range mask {
		mask[j] = sparse.Index(j * 3)
	}
	h.LoadMask(mask) // forces several growths mid-load
	if h.Grows == 0 {
		t.Fatal("expected growth during LoadMask")
	}
	for _, j := range mask {
		if !h.UpdateMasked(j, 1) {
			t.Fatalf("mask slot %d lost during growth", j)
		}
	}
	if h.UpdateMasked(1, 1) { // 1 is not a multiple of 3
		t.Error("non-mask slot accepted after growth")
	}
}

// TestAccumulatorMatchesMap drives every accumulator with random
// operation sequences and compares against a plain map — the
// property-based contract check.
func TestAccumulatorMatchesMap(t *testing.T) {
	for _, cfg := range allKinds() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			f := func(seed int64, nRows uint8) bool {
				r := rand.New(rand.NewSource(seed))
				const n = 40
				acc := newAcc(cfg.kind, cfg.bits, n, 10)
				rows := int(nRows%20) + 1
				for row := 0; row < rows; row++ {
					acc.BeginRow()
					// Random mask of ~8 columns.
					maskSet := map[sparse.Index]bool{}
					for len(maskSet) < 8 {
						maskSet[sparse.Index(r.Intn(n))] = true
					}
					var mask []sparse.Index
					for j := range maskSet {
						mask = append(mask, j)
					}
					sort.Slice(mask, func(a, b int) bool { return mask[a] < mask[b] })
					acc.LoadMask(mask)

					want := map[sparse.Index]float64{}
					written := map[sparse.Index]bool{}
					for op := 0; op < 30; op++ {
						j := sparse.Index(r.Intn(n))
						v := float64(r.Intn(5) + 1)
						if r.Intn(2) == 0 {
							// UpdateMasked accepts a slot the mask allows or
							// one a prior unmasked Update already wrote — the
							// accumulator cannot (and need not) distinguish.
							ok := acc.UpdateMasked(j, v)
							if ok != (maskSet[j] || written[j]) {
								return false
							}
							if ok {
								want[j] += v
								written[j] = true
							}
						} else {
							acc.Update(j, v)
							want[j] += v
							written[j] = true
						}
					}
					cols, vals := acc.Gather(mask, nil, nil)
					got := map[sparse.Index]float64{}
					for p, j := range cols {
						got[j] = vals[p]
					}
					for j, v := range want {
						if maskSet[j] {
							if got[j] != v {
								return false
							}
						} else if _, ok := got[j]; ok {
							return false
						}
					}
					if len(cols) > len(want) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAccumulatorMaskedOnlyProperty drives every accumulator kind
// through the exact protocol the MaskLoad kernel
// uses (mask load, then only UpdateMasked) and compares with a map.
func TestAccumulatorMaskedOnlyProperty(t *testing.T) {
	for _, cfg := range allKinds() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				const n = 48
				acc := newAcc(cfg.kind, cfg.bits, n, 12)
				for row := 0; row < 12; row++ {
					acc.BeginRow()
					maskSet := map[sparse.Index]bool{}
					for len(maskSet) < 6 {
						maskSet[sparse.Index(r.Intn(n))] = true
					}
					var mask []sparse.Index
					for j := range maskSet {
						mask = append(mask, j)
					}
					sort.Slice(mask, func(a, b int) bool { return mask[a] < mask[b] })
					acc.LoadMask(mask)
					want := map[sparse.Index]float64{}
					for op := 0; op < 25; op++ {
						j := sparse.Index(r.Intn(n))
						v := float64(r.Intn(5) + 1)
						ok := acc.UpdateMasked(j, v)
						if ok != maskSet[j] {
							return false
						}
						if ok {
							want[j] += v
						}
					}
					cols, vals := acc.Gather(mask, nil, nil)
					if len(cols) != len(want) {
						return false
					}
					for p, j := range cols {
						if want[j] != vals[p] {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestGatherOrderFollowsMask(t *testing.T) {
	for _, cfg := range allKinds() {
		t.Run(cfg.name, func(t *testing.T) {
			acc := newAcc(cfg.kind, cfg.bits, 64, 16)
			acc.BeginRow()
			mask := []sparse.Index{4, 9, 17, 33, 50}
			acc.LoadMask(mask)
			for _, j := range []sparse.Index{50, 4, 17} {
				acc.UpdateMasked(j, 1)
			}
			cols, _ := acc.Gather(mask, nil, nil)
			if !sort.SliceIsSorted(cols, func(a, b int) bool { return cols[a] < cols[b] }) {
				t.Errorf("gather output unsorted: %v", cols)
			}
		})
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid marker bits did not panic")
		}
	}()
	newAcc(DenseKind, 12, 8, 4)
}

// TestNewPanicsOnUnbuildableKind pins that New builds only the four
// concrete kinds: AutoKind must be resolved by the planner first, and
// the value past it names no accumulator.
func TestNewPanicsOnUnbuildableKind(t *testing.T) {
	for _, kind := range []Kind{AutoKind, AutoKind + 1} {
		t.Run(kind.String(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", kind)
				}
			}()
			newAcc(kind, 32, 8, 4)
		})
	}
}

// TestWindowGatherUpdate walks a dense window of 8 over 64 columns
// through the three routes a row can take: one that ends inside the
// window at column 0, one the window moves to (columns just below lo and
// at lo+8 are outside it), and one wider than the window, which spills.
// Each row takes masked and co-iteration updates; nothing leaks between
// them, whatever lo was before.
func TestWindowGatherUpdate(t *testing.T) {
	for _, bits := range []int{8, 16, 32, 64} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			acc := NewWindow[float64](semiring.PlusTimes[float64]{}, 8, 0, bits)
			rows := []struct {
				mask            []sparse.Index
				outside         []sparse.Index
				spilled         bool
				wantCols        []sparse.Index
				wantVals        []float64
				updates, coiter []sparse.Index
			}{
				{mask: []sparse.Index{40, 42, 47}, outside: []sparse.Index{39, 48, 41, 0},
					updates: []sparse.Index{42, 47}, coiter: []sparse.Index{42},
					wantCols: []sparse.Index{42, 47}, wantVals: []float64{2, 1}},
				{mask: []sparse.Index{1, 30}, outside: []sparse.Index{2, 29, 42, 47}, spilled: true,
					updates: []sparse.Index{30}, coiter: []sparse.Index{1, 30},
					wantCols: []sparse.Index{1, 30}, wantVals: []float64{1, 2}},
				{mask: []sparse.Index{3, 5}, outside: []sparse.Index{1, 2, 40, 42},
					updates: []sparse.Index{5}, coiter: []sparse.Index{3},
					wantCols: []sparse.Index{3, 5}, wantVals: []float64{1, 1}},
				{mask: []sparse.Index{42, 47}, outside: []sparse.Index{40, 41, 30, 55},
					coiter:   []sparse.Index{47},
					wantCols: []sparse.Index{47}, wantVals: []float64{1}},
			}
			var spills int64
			for round := 0; round < 100; round++ { // wraps the 8-bit marker
				for i, row := range rows {
					acc.BeginRow()
					acc.LoadMask(row.mask)
					for _, j := range row.outside {
						if acc.UpdateMasked(j, 100) {
							t.Fatalf("round %d row %d: column %d outside the mask accepted", round, i, j)
						}
					}
					for _, j := range row.updates {
						if !acc.UpdateMasked(j, 1) {
							t.Fatalf("round %d row %d: mask column %d rejected", round, i, j)
						}
					}
					for _, j := range row.coiter {
						acc.Update(j, 1)
					}
					cols, vals := acc.Gather(row.mask, nil, nil)
					if fmt.Sprint(cols, vals) != fmt.Sprint(row.wantCols, row.wantVals) {
						t.Fatalf("round %d row %d: gathered %v %v, want %v %v",
							round, i, cols, vals, row.wantCols, row.wantVals)
					}
					if row.spilled {
						spills++
					}
				}
			}
			st := acc.(Instrumented).AccumStats()
			if st.Spills != spills {
				t.Errorf("Spills = %d, want %d (one per wide row)", st.Spills, spills)
			}
			if bits == 8 && st.Clears == 0 {
				t.Error("8-bit marker never wrapped while the window moved")
			}
			if err := acc.(Checkable).CheckClean(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestHeadersFillCacheLines pins the per-worker headers to whole cache
// lines: a workspace allocates its workers' accumulators back to back,
// and each is written on every row, so a header that ended mid-line
// would share that line with the next worker's. Every kind at every
// marker width and both value types; the semirings that carry an
// identity value (MinPlus, MinFirst) add its size on top.
func TestHeadersFillCacheLines(t *testing.T) {
	type f64 = semiring.PlusTimes[float64]
	type i64 = semiring.PlusTimes[int64]
	sizes := map[string]uintptr{
		"Dense8/float64":        unsafe.Sizeof(Dense[float64, f64, uint8]{}),
		"Dense16/float64":       unsafe.Sizeof(Dense[float64, f64, uint16]{}),
		"Dense32/float64":       unsafe.Sizeof(Dense[float64, f64, uint32]{}),
		"Dense64/float64":       unsafe.Sizeof(Dense[float64, f64, uint64]{}),
		"Dense8/int64":          unsafe.Sizeof(Dense[int64, i64, uint8]{}),
		"Dense16/int64":         unsafe.Sizeof(Dense[int64, i64, uint16]{}),
		"Dense32/int64":         unsafe.Sizeof(Dense[int64, i64, uint32]{}),
		"Dense64/int64":         unsafe.Sizeof(Dense[int64, i64, uint64]{}),
		"Hash8/float64":         unsafe.Sizeof(Hash[float64, f64, uint8]{}),
		"Hash16/float64":        unsafe.Sizeof(Hash[float64, f64, uint16]{}),
		"Hash32/float64":        unsafe.Sizeof(Hash[float64, f64, uint32]{}),
		"Hash64/float64":        unsafe.Sizeof(Hash[float64, f64, uint64]{}),
		"Hash8/int64":           unsafe.Sizeof(Hash[int64, i64, uint8]{}),
		"Hash16/int64":          unsafe.Sizeof(Hash[int64, i64, uint16]{}),
		"Hash32/int64":          unsafe.Sizeof(Hash[int64, i64, uint32]{}),
		"Hash64/int64":          unsafe.Sizeof(Hash[int64, i64, uint64]{}),
		"DenseExplicit/float64": unsafe.Sizeof(DenseExplicit[float64, f64]{}),
		"DenseExplicit/int64":   unsafe.Sizeof(DenseExplicit[int64, i64]{}),
		"HashExplicit/float64":  unsafe.Sizeof(HashExplicit[float64, f64]{}),
		"HashExplicit/int64":    unsafe.Sizeof(HashExplicit[int64, i64]{}),
	}
	for name, size := range sizes {
		if size%64 != 0 {
			t.Errorf("%s header is %d bytes, not a whole number of 64-byte cache lines", name, size)
		}
	}
}
