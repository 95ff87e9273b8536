package core

import (
	"math/rand"
	"testing"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// lowerPlanCutoff drops the serial crossover so the parallel assembly and
// plan passes run on test-sized inputs, restoring it when the test ends.
func lowerPlanCutoff(t *testing.T) {
	t.Helper()
	old := sched.SetBlockCutoffForTest(1)
	t.Cleanup(func() { sched.SetBlockCutoffForTest(old) })
}

// makeOuts builds per-tile outputs with the given per-row nnz counts,
// synthesizing distinguishable column/value payloads so a copy to the
// wrong offset is detected.
func makeOuts(tiles []tiling.Tile, rowNNZ []int) []exec.TileBuf[float64] {
	outs := make([]exec.TileBuf[float64], len(tiles))
	for t, tl := range tiles {
		for r := tl.Lo; r < tl.Hi; r++ {
			outs[t].RowNNZ = append(outs[t].RowNNZ, int32(rowNNZ[r]))
			for j := 0; j < rowNNZ[r]; j++ {
				outs[t].Cols = append(outs[t].Cols, sparse.Index(j))
				outs[t].Vals = append(outs[t].Vals, float64(r*1000+j))
			}
		}
	}
	return outs
}

func assembleCase(t *testing.T, rows, cols int, tiles []tiling.Tile, rowNNZ []int) {
	t.Helper()
	outs := makeOuts(tiles, rowNNZ)
	want, err := assembleE(nil, nil, rows, cols, tiles, outs, 1)
	if err != nil {
		t.Fatalf("serial assemble: %v", err)
	}
	if err := want.Check(); err != nil {
		t.Fatalf("serial assemble malformed: %v", err)
	}
	for i := 0; i < rows; i++ {
		if got := want.RowNNZ(i); got != int64(rowNNZ[i]) {
			t.Fatalf("row %d has %d entries, want %d", i, got, rowNNZ[i])
		}
	}
	lowerPlanCutoff(t)
	for _, p := range []int{1, 2, 3, 8} {
		got, err := assembleE(nil, nil, rows, cols, tiles, outs, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !sparse.Equal(want, got) {
			t.Fatalf("p=%d: parallel assemble differs from serial", p)
		}
		// Lent storage left dirty by a larger matrix: every array is
		// reused, and the result must not show what it held.
		dirty := sparse.NewCSR[float64](rows+3, cols+1, want.NNZ()+5)
		for i := range dirty.RowPtr {
			dirty.RowPtr[i] = int64(7 * i)
		}
		dirty.ColIdx = append(dirty.ColIdx, make([]sparse.Index, want.NNZ()+5)...)
		dirty.Val = append(dirty.Val, make([]float64, want.NNZ()+5)...)
		for q := range dirty.Val {
			dirty.ColIdx[q], dirty.Val[q] = 99, -1
		}
		got, err = assembleE(nil, dirty, rows, cols, tiles, outs, p)
		if err != nil {
			t.Fatalf("p=%d lent: %v", p, err)
		}
		if got != dirty || !sparse.Equal(want, got) {
			t.Fatalf("p=%d: assembling into lent storage differs from a fresh result", p)
		}
	}
}

func TestAssembleZeroNNZTiles(t *testing.T) {
	// Middle tiles produce nothing: their RowPtr spans must stay flat and
	// the surrounding payloads must land contiguously.
	tiles := []tiling.Tile{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 5}, {Lo: 5, Hi: 6}, {Lo: 6, Hi: 9}}
	rowNNZ := []int{3, 1, 0, 0, 0, 2, 0, 0, 4}
	assembleCase(t, 9, 8, tiles, rowNNZ)
}

func TestAssembleAllEmptyRows(t *testing.T) {
	// Empty mask rows everywhere — zero-nnz result, valid RowPtr.
	tiles := []tiling.Tile{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 7}}
	assembleCase(t, 7, 5, tiles, make([]int, 7))
}

func TestAssembleSingleTile(t *testing.T) {
	assembleCase(t, 4, 6, []tiling.Tile{{Lo: 0, Hi: 4}}, []int{2, 0, 3, 1})
}

func TestAssembleZeroRows(t *testing.T) {
	for _, p := range []int{1, 4} {
		c, err := assembleE[float64](nil, nil, 0, 5, nil, nil, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if c.Rows != 0 || c.Cols != 5 || c.NNZ() != 0 || len(c.RowPtr) != 1 {
			t.Errorf("p=%d: zero-row assemble = %+v", p, c)
		}
	}
}

func TestAssembleParallelRandomized(t *testing.T) {
	lowerPlanCutoff(t)
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 30; trial++ {
		rows := r.Intn(200) + 1
		rowNNZ := make([]int, rows)
		for i := range rowNNZ {
			if r.Intn(3) > 0 { // leave ~1/3 of the rows empty
				rowNNZ[i] = r.Intn(6)
			}
		}
		tiles := tiling.UniformTiles(rows, r.Intn(16)+1)
		assembleCase(t, rows, 10, tiles, rowNNZ)
	}
}

func TestMaskedSpGEMMParallelPlanBitIdentical(t *testing.T) {
	// The full kernel with parallel plan construction and assembly must
	// be bit-identical to the one-worker run, whose plan and assembly
	// are serial, across schedules.
	lowerPlanCutoff(t)

	r := rand.New(rand.NewSource(71))
	a := randMatrix(120, 120, 0.06, r)
	base := DefaultConfig()
	base.Workers = 1
	base.Tiles = 16
	want, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		for _, pol := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
			cfg := base
			cfg.Workers = w
			cfg.Schedule = pol
			got, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(want, got) {
				t.Errorf("w=%d %v: result differs from serial-plan run", w, pol)
			}
		}
	}
}
