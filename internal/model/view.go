package model

import (
	"math"

	"maskedspgemm/internal/core"
)

// The lower view's unit costs, fitted: core prices the view's work
// (core.CountViewWork) at them to pick its row kernel, and the test
// beside this fails when the two drift.

// ViewRun is one graph's row of internal/core's BenchmarkViewKernels:
// the lower view's work and each kernel's time, forced, in ms.
type ViewRun struct {
	Graph          string
	Work           core.ViewWork
	AccMs, MergeMs float64
}

// ReferenceViewRuns are the medians of five runs of BenchmarkViewKernels
// (one worker, 20 iterations) on the 2-vCPU reference host.
var ReferenceViewRuns = []ViewRun{
	{"com-Orkut-sim", core.ViewWork{Rows: 6476, Entries: 123769, Flops: 9195960, Steps: 17687908}, 30.43, 65.39},
	{"hollywood-2009-sim", core.ViewWork{Rows: 3694, Entries: 99729, Flops: 7504690, Steps: 15432969}, 27.61, 56.72},
	{"com-LiveJournal-sim", core.ViewWork{Rows: 10539, Entries: 127060, Flops: 7560742, Steps: 13447731}, 22.62, 51.3},
	{"uk-2002-sim", core.ViewWork{Rows: 31999, Entries: 413529, Flops: 4954949, Steps: 13615693}, 18.57, 60.44},
	{"circuit5M-sim", core.ViewWork{Rows: 28832, Entries: 68203, Hashed: 15842, Flops: 136821, Steps: 335789}, 2.916, 2.246},
	{"stokes-sim", core.ViewWork{Rows: 25999, Entries: 199514, Hashed: 5145, Flops: 1524901, Steps: 1350230}, 9.551, 7.88},
	{"GAP-road-sim", core.ViewWork{Rows: 45884, Entries: 89282, Flops: 173243, Steps: 47312}, 2.05, 1.043},
	{"europe_osm-sim", core.ViewWork{Rows: 79611, Entries: 152278, Flops: 289840, Steps: 77625}, 3.556, 1.855},
}

// DerivedViewCosts are the values core's view costs must hold: each
// kernel's unit costs, in ns, fitted to ReferenceViewRuns by least
// squares on the relative error, so the fast graphs weigh as much as the
// slow, and rounded to two significant digits (the medians move by about
// a percent between runs).
func DerivedViewCosts() core.ViewCosts {
	acc, merge := make([][]float64, len(ReferenceViewRuns)), make([][]float64, len(ReferenceViewRuns))
	for g, r := range ReferenceViewRuns {
		w, ta, tm := r.Work, r.AccMs*1e6, r.MergeMs*1e6
		acc[g] = []float64{float64(w.Rows) / ta, float64(w.Entries) / ta, float64(w.Hashed) / ta, float64(w.Flops) / ta}
		merge[g] = []float64{float64(w.Entries) / tm, float64(w.Steps) / tm}
	}
	a, m := leastSquares(acc), leastSquares(merge)
	for _, c := range [][]float64{a, m} {
		for i, x := range c {
			p := math.Pow(10, 1-math.Floor(math.Log10(math.Abs(x))))
			c[i] = math.Round(x*p) / p
		}
	}
	return core.ViewCosts{Row: a[0], Entry: a[1], Hashed: a[2], Flop: a[3], Pair: m[0], Step: m[1]}
}

// leastSquares solves min Σ_g (x_g · c − 1)² for c by Gauss–Jordan
// elimination of the normal equations, whose matrix is symmetric
// positive definite, so they need no pivoting.
func leastSquares(x [][]float64) []float64 {
	n := len(x[0])
	ata := make([][]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n+1)
		for _, row := range x {
			for j := range n {
				ata[i][j] += row[i] * row[j]
			}
			ata[i][n] += row[i]
		}
	}
	for col := range n {
		for r := range n {
			if f := ata[r][col] / ata[col][col]; r != col {
				for j := col; j <= n; j++ {
					ata[r][j] -= f * ata[col][j]
				}
			}
		}
	}
	c := make([]float64, n)
	for i := range c {
		c[i] = ata[i][n] / ata[i][i]
	}
	return c
}
