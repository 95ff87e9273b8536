package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/sparse"
)

// The solve policy's production numbers, written out here so the tests
// do not read them from the code they check.
const minGrain, maxGrain = 512, 1 << 16

// planOf is the plan a solve of l under so runs on workers workers,
// built uncached.
func planOf(t testing.TB, l *sparse.CSR[float64], so core.SolveOpts, workers int) *exec.SolvePlan {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	sp, err := core.SolvePlanOf(l, cfg, so)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

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

// wide is the shape waves win on: two levels, the first n/2 rows
// diagonal-only and the rest each with eight dependencies spread over
// the first half — every level thousands of tiles' worth of
// independent work, one barrier in all.
func wide(n int) *sparse.CSR[float64] {
	half := n / 2
	coo := sparse.NewCOO[float64](n, n, int64(5*n))
	for i := 0; i < n; i++ {
		if i >= half {
			for k := 0; k < 8; k++ {
				coo.Add(sparse.Index(i), sparse.Index((i*7919+k*half/8)%half), 1)
			}
		}
		coo.Add(sparse.Index(i), sparse.Index(i), 2)
	}
	return coo.ToCSR()
}

// lowerOf is the solve operand the benchmarks build from a graph: its
// strict lower triangle plus a dominant diagonal, 1 + the row's count.
func lowerOf(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](a.Rows, a.Rows, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		deg := 0.0
		for _, j := range a.RowCols(i) {
			if int(j) < i {
				coo.Add(sparse.Index(i), j, 1)
				deg++
			}
		}
		coo.Add(sparse.Index(i), sparse.Index(i), 1+deg)
	}
	return coo.ToCSR()
}

// social is a small skewed corpus-family fixture (an R-MAT graph's lower
// triangle, 256 rows).
func social() *sparse.CSR[float64] {
	return lowerOf(graphgen.RMAT(8, 10, 0.57, 0.19, 0.19, 1))
}

// road is a small road-lattice fixture: deep, narrow level sets.
func road() *sparse.CSR[float64] {
	return lowerOf(graphgen.RoadNetwork(20, 18, 0.93, 2))
}

// TestSolvePlanMatchesExtractSolve holds the planner's own pass to the
// independent feature pass in internal/model: on every solve flavor the
// plan's row work is ExtractSolve's Work, and its grain is the clamped
// multiple of ExtractSolve's average row work.
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
		{"road", road(), nil},
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
				sp := planOf(t, stored, so, 4)
				f := model.ExtractSolve(stored, fx.mask)
				if sp.Flops != f.Work {
					t.Errorf("%s: plan row work %d, ExtractSolve %d", name, sp.Flops, f.Work)
				}
				grain := min(max(int64(f.AvgRowWork*256), minGrain), maxGrain)
				if sp.WaveGrain != grain {
					t.Errorf("%s: grain %d, want %d (avg row work %.3f)", name, sp.WaveGrain, grain, f.AvgRowWork)
				}
			}
		}
	}
}

// TestSolvePolicyPinned pins the planner's verdicts and grains on two
// processors: chain- and lattice-shaped systems and a small skewed graph
// run serially on two workers; the wide two-level system waves on two
// workers and runs serially on one; grains sit at the clamp's floor or
// follow the average row work; an explicit WaveGrain is recorded as
// given.
func TestSolvePolicyPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		name    string
		l       *sparse.CSR[float64]
		workers int
		serial  bool
		grain   int64
	}{
		{"tridiag-4096", tridiag(4096), 2, true, minGrain},
		{"road", road(), 2, true, 725},
		{"social", social(), 2, true, 1769},
		{"scattered-4096", scattered(4096), 2, true, minGrain},
		{"wide-2^16", wide(1 << 16), 2, false, 1280},
		{"wide-2^16", wide(1 << 16), 1, true, 1280},
	} {
		sp := planOf(t, tc.l, core.SolveOpts{}, tc.workers)
		if sp.Serial != tc.serial {
			t.Errorf("%s, p=%d: serial verdict %v, want %v (predicted serial %.0f ns, waves %.0f ns)",
				tc.name, tc.workers, sp.Serial, tc.serial, sp.SerialNs, sp.WavesNs)
		}
		if sp.WaveGrain != tc.grain {
			t.Errorf("%s: grain %d, want %d", tc.name, sp.WaveGrain, tc.grain)
		}
	}
	if sp := planOf(t, scattered(4096), core.SolveOpts{WaveGrain: 64}, 4); sp.WaveGrain != 64 {
		t.Errorf("explicit grain recorded as %d, want 64", sp.WaveGrain)
	}
}

// TestSolveVerdictCapsWorkers: the waves are priced for no more workers
// than there are processors to run them. Eight workers on two processors
// predict what two do, so the wide system still waves; on one processor
// it runs serially however many workers are asked for.
func TestSolveVerdictCapsWorkers(t *testing.T) {
	l := wide(1 << 16)
	so := core.SolveOpts{MergeBelow: 16}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	two, eight := planOf(t, l, so, 2), planOf(t, l, so, 8)
	if eight.Serial || eight.WavesNs != two.WavesNs {
		t.Errorf("p=8 on 2 processors: serial %v, waves %.0f ns; want waves priced as p=2's %.0f ns",
			eight.Serial, eight.WavesNs, two.WavesNs)
	}
	runtime.GOMAXPROCS(1)
	if sp := planOf(t, l, so, 8); !sp.Serial {
		t.Errorf("p=8 on 1 processor: verdict is waves (predicted serial %.0f ns, waves %.0f ns)",
			sp.SerialNs, sp.WavesNs)
	}
}
