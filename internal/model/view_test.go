package model

import (
	"math"
	"testing"

	"maskedspgemm/internal/core"
)

// TestViewCostsMatchDerivation is the drift gate: the unit costs core's
// planner prices the lower view with must be this package's fit to the
// reference runs, so neither can be retuned alone.
func TestViewCostsMatchDerivation(t *testing.T) {
	if got, want := core.ViewCostsOf(), DerivedViewCosts(); got != want {
		t.Errorf("core's view costs are %+v, the fit to ReferenceViewRuns gives %+v: "+
			"update one to match the other (and docs/TUNING.md)", got, want)
	}
}

// TestViewVerdictPicksFaster holds the derived costs to the measurements
// they came from: on every reference graph the cheaper prediction is the
// kernel that ran faster — the merge kernel on the four banded and road
// graphs, the accumulator on the four skewed ones — and every unit cost
// is positive.
func TestViewVerdictPicksFaster(t *testing.T) {
	c := DerivedViewCosts()
	for _, x := range []float64{c.Row, c.Entry, c.Hashed, c.Flop, c.Pair, c.Step} {
		if !(x > 0) {
			t.Fatalf("derived view costs %+v: every unit cost must be positive", c)
		}
	}
	for _, r := range ReferenceViewRuns {
		w := r.Work
		acc := c.Row*float64(w.Rows) + c.Entry*float64(w.Entries) + c.Hashed*float64(w.Hashed) + c.Flop*float64(w.Flops)
		merge := c.Pair*float64(w.Entries) + c.Step*float64(w.Steps)
		if (merge < acc) != (r.MergeMs < r.AccMs) {
			t.Errorf("%s: predicted accumulator %.2f ms, merge %.2f ms; measured %.2f and %.2f ms",
				r.Graph, acc/1e6, merge/1e6, r.AccMs, r.MergeMs)
		}
	}
}

// TestLeastSquares pins the fit's arithmetic: runs timed exactly at 4 ns
// per row plus 2 ns per entry give those costs back.
func TestLeastSquares(t *testing.T) {
	var x [][]float64
	for _, w := range [][2]float64{{10, 30}, {50, 20}, {7, 90}} {
		ns := 4*w[0] + 2*w[1]
		x = append(x, []float64{w[0] / ns, w[1] / ns})
	}
	if c := leastSquares(x); math.Abs(c[0]-4) > 1e-9 || math.Abs(c[1]-2) > 1e-9 {
		t.Errorf("leastSquares = %v, want [4 2]", c)
	}
}
