package core_test

import (
	"fmt"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/sparse"
)

// The solve policy's production numbers, written out here so the tests
// do not read them from the code they check.
const (
	serialCrossover       = 1 << 14
	bandedSerialCrossover = 4 << 14
	bandedFrac            = 0.75
	minGrain, maxGrain    = 512, 1 << 16
)

// tridiag is the banded worst case: a lower bidiagonal chain where every
// row depends on the previous one.
func tridiag(n int) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](n, n, 0)
	for i := 0; i < n; i++ {
		coo.Add(sparse.Index(i), sparse.Index(i), 2)
		if i > 0 {
			coo.Add(sparse.Index(i), sparse.Index(i-1), 1)
		}
	}
	return coo.ToCSR()
}

// scattered is a shallow system: rows depend only on a handful of
// far-away early rows, so level sets are wide.
func scattered(n int) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](n, n, 0)
	for i := 0; i < n; i++ {
		coo.Add(sparse.Index(i), sparse.Index(i), 2)
		if i >= n/2 {
			coo.Add(sparse.Index(i), sparse.Index(i%7), 1)
		}
	}
	return coo.ToCSR()
}

// lowerOf is the solve operand the benchmarks build from a graph: its
// strict lower triangle plus a diagonal.
func lowerOf(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](a.Rows, a.Rows, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		for _, j := range a.RowCols(i) {
			if int(j) < i {
				coo.Add(sparse.Index(i), j, 1)
			}
		}
		coo.Add(sparse.Index(i), sparse.Index(i), 2)
	}
	return coo.ToCSR()
}

// social is a small skewed corpus-family fixture (an R-MAT graph's lower
// triangle, 256 rows).
func social() *sparse.CSR[float64] {
	return lowerOf(graphgen.RMAT(8, 10, 0.57, 0.19, 0.19, 1))
}

// TestSolvePlanMatchesExtractSolve holds the planner's own pass to the
// independent feature pass in internal/model: on every solve flavor the
// plan's row work is ExtractSolve's Work, its crossover is the raised
// one exactly when ExtractSolve's BandFrac says banded, and its grain is
// the clamped multiple of ExtractSolve's average row work.
func TestSolvePlanMatchesExtractSolve(t *testing.T) {
	everyThird := func(n int) []sparse.Index {
		var m []sparse.Index
		for i := 0; i < n; i += 3 {
			m = append(m, sparse.Index(i))
		}
		return m
	}
	fixtures := []struct {
		name string
		l    *sparse.CSR[float64]
		mask []sparse.Index
	}{
		{"tridiag", tridiag(1024), nil},
		{"scattered", scattered(1024), nil},
		{"tridiag-masked", tridiag(1024), everyThird(1024)},
		{"scattered-masked", scattered(1024), everyThird(1024)},
		{"road", lowerOf(graphgen.RoadNetwork(20, 18, 0.93, 2)), nil},
		{"social", social(), nil},
		{"social-masked", social(), everyThird(256)},
	}
	for _, fx := range fixtures {
		for _, tri := range []core.Tri{core.Lower, core.Upper} {
			stored := fx.l
			if tri == core.Upper {
				stored = sparse.Transpose(fx.l)
			}
			for _, transpose := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/transpose=%v", fx.name, tri, transpose)
				so := core.SolveOpts{Tri: tri, Transpose: transpose, Mask: fx.mask}
				sp, err := core.BuildSolvePlan(stored, so, 4)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				f := model.ExtractSolve(stored, fx.mask)
				if sp.Flops != f.Work {
					t.Errorf("%s: plan row work %d, ExtractSolve %d", name, sp.Flops, f.Work)
				}
				want := int64(serialCrossover)
				if f.BandFrac >= bandedFrac {
					want = bandedSerialCrossover
				}
				if sp.SerialCrossover != want {
					t.Errorf("%s: crossover %d, want %d (BandFrac %.3f)", name, sp.SerialCrossover, want, f.BandFrac)
				}
				grain := min(max(int64(f.AvgRowWork*256), minGrain), maxGrain)
				if sp.WaveGrain != grain {
					t.Errorf("%s: grain %d, want %d (avg row work %.3f)", name, sp.WaveGrain, grain, f.AvgRowWork)
				}
			}
		}
	}
}

// TestSolvePolicyPinned pins the derived numbers: a chain-dominated
// system gets the raised serial bar, a scattered one the standard
// crossover, both the floor of the grain clamp; a skewed graph's grain
// follows its average row work; an explicit WaveGrain is recorded as
// given.
func TestSolvePolicyPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		l         *sparse.CSR[float64]
		crossover int64
		grain     int64
	}{
		{"tridiag-4096", tridiag(4096), bandedSerialCrossover, minGrain},
		{"scattered-4096", scattered(4096), serialCrossover, minGrain},
		{"social", social(), serialCrossover, 1769},
	} {
		sp, err := core.BuildSolvePlan(tc.l, core.SolveOpts{}, 4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sp.SerialCrossover != tc.crossover {
			t.Errorf("%s: crossover %d, want %d", tc.name, sp.SerialCrossover, tc.crossover)
		}
		if sp.WaveGrain != tc.grain {
			t.Errorf("%s: grain %d, want %d", tc.name, sp.WaveGrain, tc.grain)
		}
	}
	sp, err := core.BuildSolvePlan(scattered(4096), core.SolveOpts{WaveGrain: 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp.WaveGrain != 64 {
		t.Errorf("explicit grain recorded as %d, want 64", sp.WaveGrain)
	}
}
