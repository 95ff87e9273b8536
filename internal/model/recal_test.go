package model

import (
	"math"
	"testing"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/obs"
)

// synthStats fabricates a per-run snapshot with the fields Observe
// consumes: Eq. 2 FLOPs for cost normalization and live pick counters
// so neither bracket direction is proven inert.
func synthStats() obs.Stats {
	var st obs.Stats
	st.Totals.Flops = 1000
	st.Totals.CoIterPicks = 10
	st.Totals.LinearPicks = 10
	return st
}

// driveRecal runs the propose/observe loop against a deterministic
// cost-per-FLOP landscape and returns the sum of the counter deltas.
func driveRecal(rc *Recalibrator, costOf func(k float64) float64, runs int) obs.RecalCounters {
	st := synthStats()
	var total obs.RecalCounters
	for i := 0; i < runs; i++ {
		k := rc.Propose()
		seconds := costOf(k) * float64(st.Totals.Flops)
		d := rc.Observe(seconds, st)
		total.Updates += d.Updates
		total.Explorations += d.Explorations
		total.Recenters += d.Recenters
		total.Snapbacks += d.Snapbacks
		total.KappaLast = d.KappaLast
	}
	return total
}

// TestRecalConvergesNearOptimum is the acceptance bound: on a convex
// cost landscape with its optimum far from the default, the online
// search must converge within a bounded number of warm runs to a κ
// whose cost is within 5% of the best offline-swept grid point.
func TestRecalConvergesNearOptimum(t *testing.T) {
	const optimum = 8.0
	costOf := func(k float64) float64 {
		d := math.Log(k) - math.Log(optimum)
		return 1 + d*d
	}
	rc := NewRecalibrator(0)
	total := driveRecal(rc, costOf, 64)

	if !rc.Converged() {
		t.Fatalf("not converged after 64 runs (center %v)", rc.Kappa())
	}
	if total.Recenters == 0 {
		t.Fatal("search never recentered away from the default")
	}
	// Best κ an offline sweep over the paper's grid would find,
	// restricted to the recalibrator's own clamp range.
	best := math.Inf(1)
	for _, k := range []float64{0.001, 0.01, 0.1, 1, 10, 100, 1000} {
		k = math.Min(64, math.Max(1.0/64, k))
		if c := costOf(k); c < best {
			best = c
		}
	}
	if got := costOf(rc.Kappa()); got > 1.05*best {
		t.Fatalf("adapted κ=%v costs %v, more than 5%% over best swept cost %v",
			rc.Kappa(), got, best)
	}
}

// TestRecalStaysAtDefaultWhenBest: when the static default already sits
// at the optimum, adaptation must not wander off it — the never-worse
// guarantee in its simplest form.
func TestRecalStaysAtDefaultWhenBest(t *testing.T) {
	costOf := func(k float64) float64 {
		d := math.Log(k)
		return 1 + d*d
	}
	rc := NewRecalibrator(0)
	driveRecal(rc, costOf, 64)
	if k := rc.Kappa(); costOf(k) > 1.05*costOf(1) {
		t.Fatalf("adapted κ=%v costs %v, worse than staying at the default (%v)",
			k, costOf(k), costOf(1))
	}
	if !rc.Converged() {
		t.Fatalf("center kept winning but search did not converge (κ=%v)", rc.Kappa())
	}
}

// TestRecalSnapsBackWhenDefaultWins: after the landscape shifts so the
// static default beats the adapted center, the periodic reference arm
// must detect it and snap the estimator back — adaptation can never
// lock in a κ worse than not adapting.
func TestRecalSnapsBackWhenDefaultWins(t *testing.T) {
	// Phase 1 rewards high κ and lets the search climb away from 1.
	up := func(k float64) float64 { return 2 - math.Min(1, math.Log1p(k)/4) }
	rc := NewRecalibrator(0)
	driveRecal(rc, up, 24)
	if rc.Kappa() <= 1 {
		t.Fatalf("setup failed: center %v did not climb above the default", rc.Kappa())
	}
	// Phase 2 inverts the landscape: only the default is cheap now.
	flipped := func(k float64) float64 {
		if math.Abs(math.Log(k)) < 1e-9 {
			return 0.1
		}
		return 10
	}
	total := driveRecal(rc, flipped, 64)
	if total.Snapbacks == 0 {
		t.Fatal("reference arm never triggered a snapback")
	}
	if k := rc.Kappa(); k != 1 {
		t.Fatalf("center %v after snapback, want the default 1", k)
	}
}

// TestRecalPickCountersBoundSearch: a center observation in which every
// row pair co-iterated proves raising κ cannot change any decision, so
// the high arm must stop being proposed.
func TestRecalPickCountersBoundSearch(t *testing.T) {
	rc := NewRecalibrator(0)
	st := synthStats()
	st.Totals.LinearPicks = 0 // everything already co-iterates
	// Let the rotation reach the center arm once so the skip is learned.
	for i := 0; i < 2; i++ {
		rc.Propose()
		rc.Observe(1, st)
	}
	for i := 0; i < 12; i++ {
		if k := rc.Propose(); k > rc.Kappa() {
			t.Fatalf("proposal %d: κ=%v above center %v despite all-co-iterate picks", i, k, rc.Kappa())
		}
		rc.Observe(1, st)
	}
}

// TestRecalNilSafety: nil recalibrators propose the default and observe
// into the void, so uninstrumented call sites need no branches.
func TestRecalNilSafety(t *testing.T) {
	var rc *Recalibrator
	if k := rc.Propose(); k != 1 {
		t.Fatalf("nil Propose = %v, want the default 1", k)
	}
	if d := rc.Observe(1, obs.Stats{}); d != (obs.RecalCounters{}) {
		t.Fatalf("nil Observe returned %+v, want zeros", d)
	}
	if rc.Converged() {
		t.Fatal("nil recalibrator claims convergence")
	}
}

// TestTuneForSharesCell: multiplies whose operands fall in the same
// size classes must share one recalibrator through the engine's tuning
// cache; a nil engine disables adaptation.
func TestTuneForSharesCell(t *testing.T) {
	a := graphgen.ErdosRenyi(300, 1200, 5)
	b := graphgen.ErdosRenyi(310, 1250, 6) // same ceil-log2 classes
	eng := exec.New(exec.Config{})
	rc1 := TuneFor(eng, a, a, a, 0)
	if rc1 == nil {
		t.Fatal("TuneFor returned nil with a live engine")
	}
	if rc2 := TuneFor(eng, b, b, b, 0); rc2 != rc1 {
		t.Fatal("same size classes did not share the tuning cell")
	}
	small := graphgen.ErdosRenyi(20, 60, 7)
	if rc3 := TuneFor(eng, small, small, small, 0); rc3 == rc1 {
		t.Fatal("different size classes shared a tuning cell")
	}
	if rc := TuneFor(nil, a, a, a, 0); rc != nil {
		t.Fatal("nil engine must disable adaptation")
	}
}
