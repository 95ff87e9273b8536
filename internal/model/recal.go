package model

import (
	"math"
	"sync"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sparse"
)

// The online κ recalibrator's search parameters. Constants: the only
// value a caller ever chose is the static default κ the search starts
// from, which NewRecalibrator and TuneFor take directly.
const (
	// staticKappa is the default κ when the caller gives none (<= 0): the
	// paper's recommended default.
	staticKappa = 1.0
	// recalGamma is the initial multiplicative exploration step: the arms
	// bracket the center at κc/γ and κc·γ. recalMinGamma is the
	// convergence floor the step shrinks toward once the center keeps
	// winning, recalShrinkAfter consecutive center wins at a time.
	recalGamma       = 2.0
	recalMinGamma    = 1.05
	recalShrinkAfter = 2
	// recalAlpha is the EWMA weight of the newest observation.
	recalAlpha = 0.3
	// Every recalRefPeriod observations the default κ is re-proposed as a
	// reference arm, so the adapted κ is continuously audited against the
	// static default; the estimator snaps back when the reference's cost
	// undercuts the center's by recalSnapbackMargin
	// (refCost < margin·centerCost).
	recalRefPeriod      = 8
	recalSnapbackMargin = 0.95
	// recalKappaMin and recalKappaMax clamp the adapted center.
	recalKappaMin = 1.0 / 64
	recalKappaMax = 64.0
)

// Recalibrator arms: below-center, center, above-center, plus the
// periodic static-default reference.
const (
	armLow = iota
	armMid
	armHigh
	armRef
	numArms
)

// Recalibrator adapts the co-iteration factor κ online, per operand
// family. It runs a three-arm multiplicative search around the current
// center κc — proposing κc/γ, κc and κc·γ in rotation — and feeds each
// run's measured cost (wall time normalized by the run's Eq. 2 FLOPs,
// so rounds over shrinking matrices stay comparable) into per-arm
// exponentially weighted averages. When a bracket arm's average
// undercuts the center's, the center recenters on it; when the center
// keeps winning, γ shrinks toward 1 and the search converges. A
// periodic reference run at the static default κ audits the whole
// adaptation: if the default is measurably cheaper, the estimator
// snaps back and re-widens γ, so adaptation can never lock in a κ
// worse than not adapting at all.
//
// The hybrid pick counters bound the search behaviorally: a center run
// in which every (i,k) pair already co-iterated (zero linear picks)
// proves raising κ cannot change a single decision, so the high arm is
// skipped — and symmetrically for the low arm.
//
// All methods are safe for concurrent use; a nil *Recalibrator
// disables everything (Propose returns the static default).
type Recalibrator struct {
	mu sync.Mutex
	// defaultKappa is the static κ the estimator starts from and snaps
	// back to when the periodic reference run beats the adapted center.
	defaultKappa float64

	center float64
	gamma  float64

	// cost and seen are the per-arm EWMA cost and sample count since
	// the last recenter; ref keeps its own longer-lived average.
	cost [numArms]float64
	seen [numArms]int

	// pending is the arm the next Observe attributes to (set by
	// Propose); -1 when no proposal is outstanding.
	pending int
	// rotate cycles the bracket arms; updates counts observations to
	// schedule the reference arm.
	rotate  int
	updates int

	// skipLow/skipHigh mark bracket directions proven behaviorally
	// inert by the pick counters of the latest center observation.
	skipLow, skipHigh bool

	centerWins int
	converged  bool
}

// NewRecalibrator returns a recalibrator centered on the static default
// κ (<= 0 means 1).
func NewRecalibrator(defaultKappa float64) *Recalibrator {
	if defaultKappa <= 0 {
		defaultKappa = staticKappa
	}
	return &Recalibrator{
		defaultKappa: defaultKappa,
		center:       defaultKappa,
		gamma:        recalGamma,
		pending:      -1,
	}
}

// Kappa returns the current adapted center κ (the static default on a
// nil recalibrator).
func (rc *Recalibrator) Kappa() float64 {
	if rc == nil {
		return staticKappa
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.center
}

// Converged reports whether the search step has shrunk to its floor.
func (rc *Recalibrator) Converged() bool {
	if rc == nil {
		return false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.converged
}

// Propose returns the κ to run next and records which arm it belongs
// to, so the following Observe attributes the measurement correctly.
// Arms rotate low/mid/high (skipping behaviorally inert directions),
// with the static-default reference injected every recalRefPeriod
// observations. A nil recalibrator proposes the static default.
func (rc *Recalibrator) Propose() float64 {
	if rc == nil {
		return staticKappa
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.updates > 0 && rc.updates%recalRefPeriod == 0 && rc.pending != armRef &&
		rc.seen[armMid] > 0 {
		rc.pending = armRef
		return rc.defaultKappa
	}
	if rc.converged {
		rc.pending = armMid
		return rc.center
	}
	for range [3]int{} {
		arm := []int{armLow, armMid, armHigh}[rc.rotate%3]
		rc.rotate++
		if (arm == armLow && rc.skipLow) || (arm == armHigh && rc.skipHigh) {
			continue
		}
		rc.pending = arm
		return rc.armKappa(arm)
	}
	rc.pending = armMid
	return rc.center
}

// armKappa maps an arm to its κ, clamped. Caller holds rc.mu.
func (rc *Recalibrator) armKappa(arm int) float64 {
	k := rc.center
	switch arm {
	case armLow:
		k = rc.center / rc.gamma
	case armHigh:
		k = rc.center * rc.gamma
	case armRef:
		return rc.defaultKappa
	}
	return math.Min(recalKappaMax, math.Max(recalKappaMin, k))
}

// ObserveFailure discards the outstanding proposal: a run that failed
// (or completed on a degraded retry path) measured something other than
// the proposed κ's cost, so feeding it to Observe would corrupt the
// arm's EWMA. The next Propose starts clean. Nil-safe.
func (rc *Recalibrator) ObserveFailure() {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	rc.pending = -1
	rc.mu.Unlock()
}

// Observe feeds one run's measurement back: seconds is the run's wall
// time, st its per-run stats snapshot (obs.Recorder.LastRun; the zero
// value degrades to unnormalized cost). The returned counter delta is
// ready for obs.Recorder.AddRecal. Nil recalibrators return zeros.
func (rc *Recalibrator) Observe(seconds float64, st obs.Stats) obs.RecalCounters {
	if rc == nil || !(seconds >= 0) {
		return obs.RecalCounters{}
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()

	arm := rc.pending
	if arm < 0 {
		arm = armMid
	}
	rc.pending = -1

	flops := st.Totals.Flops
	if flops <= 0 {
		flops = 1
	}
	c := seconds / float64(flops)
	a := recalAlpha
	if rc.seen[arm] == 0 {
		rc.cost[arm] = c
	} else {
		rc.cost[arm] = (1-a)*rc.cost[arm] + a*c
	}
	rc.seen[arm]++
	rc.updates++

	delta := obs.RecalCounters{Updates: 1}
	if arm != armMid {
		delta.Explorations = 1
	}

	if arm == armMid {
		// Pick counters bound the bracket: all-co-iterate means a higher
		// κ changes nothing; all-linear means a lower κ changes nothing.
		if picks := st.Totals.CoIterPicks + st.Totals.LinearPicks; picks > 0 {
			rc.skipHigh = st.Totals.LinearPicks == 0
			rc.skipLow = st.Totals.CoIterPicks == 0
		}
	}

	switch arm {
	case armRef:
		if rc.seen[armMid] > 0 && rc.cost[armRef] < recalSnapbackMargin*rc.cost[armMid] &&
			rc.center != rc.defaultKappa {
			rc.snapbackLocked()
			delta.Snapbacks = 1
		}
	case armLow, armMid, armHigh:
		if rc.bracketReadyLocked() {
			if rc.recenterLocked() {
				delta.Recenters = 1
			}
		}
	}
	delta.KappaLast = rc.center
	return delta
}

// bracketReadyLocked reports whether every live bracket arm has at
// least one sample since the last recenter. Caller holds rc.mu.
func (rc *Recalibrator) bracketReadyLocked() bool {
	if rc.seen[armMid] == 0 {
		return false
	}
	if !rc.skipLow && rc.seen[armLow] == 0 {
		return false
	}
	if !rc.skipHigh && rc.seen[armHigh] == 0 {
		return false
	}
	return true
}

// recenterLocked compares the bracket and either moves the center onto
// the cheaper arm (returns true) or counts a center win and shrinks γ
// once the center has defended its position recalShrinkAfter times in a
// row.
// Caller holds rc.mu.
func (rc *Recalibrator) recenterLocked() bool {
	best, bestCost := armMid, rc.cost[armMid]
	if !rc.skipLow && rc.seen[armLow] > 0 && rc.cost[armLow] < bestCost {
		best, bestCost = armLow, rc.cost[armLow]
	}
	if !rc.skipHigh && rc.seen[armHigh] > 0 && rc.cost[armHigh] < bestCost {
		best = armHigh
	}
	if best == armMid {
		rc.centerWins++
		if rc.centerWins >= recalShrinkAfter && !rc.converged {
			rc.gamma = 1 + (rc.gamma-1)/2
			if rc.gamma <= recalMinGamma {
				rc.gamma = recalMinGamma
				rc.converged = true
			}
			rc.centerWins = 0
		}
		// Restart the bracket so stale arm averages do not mask drift.
		rc.resetBracketLocked(rc.cost[armMid], 1)
		return false
	}
	won := rc.armKappa(best)
	oldCost := rc.cost[best]
	rc.center = won
	rc.centerWins = 0
	rc.converged = false
	// The winning arm's average becomes the new center's; the proven
	// inert directions are re-examined at the new center.
	rc.skipLow, rc.skipHigh = false, false
	rc.resetBracketLocked(oldCost, 1)
	return true
}

// resetBracketLocked clears the bracket arms, seeding the center with
// the given average and sample count. Caller holds rc.mu.
func (rc *Recalibrator) resetBracketLocked(midCost float64, midSeen int) {
	rc.cost[armLow], rc.seen[armLow] = 0, 0
	rc.cost[armHigh], rc.seen[armHigh] = 0, 0
	rc.cost[armMid], rc.seen[armMid] = midCost, midSeen
}

// snapbackLocked resets the estimator onto the static default and
// re-widens the search. Caller holds rc.mu.
func (rc *Recalibrator) snapbackLocked() {
	rc.center = rc.defaultKappa
	rc.gamma = recalGamma
	rc.converged = false
	rc.centerWins = 0
	rc.skipLow, rc.skipHigh = false, false
	rc.resetBracketLocked(rc.cost[armRef], 1)
}

// TuneFor returns the recalibrator bound to the engine's tuning cell
// for the operand family of C = M ⊙ (A × B), creating it on first use.
// The cell (and therefore the adapted κ) is shared by every multiply
// whose operands fall in the same ceil-log2 size classes — exactly the
// reuse an iterative algorithm's rounds exhibit. Returns nil when the
// engine is nil or its cache is disabled: adaptation needs somewhere to
// persist between calls.
func TuneFor[T sparse.Number](engine *exec.Engine, m, a, b *sparse.CSR[T], defaultKappa float64) *Recalibrator {
	tun := engine.Tuning(exec.TuneKeyOf(m, a, b))
	if tun == nil {
		return nil
	}
	var rc *Recalibrator
	tun.Update(func(state any) any {
		if existing, ok := state.(*Recalibrator); ok {
			rc = existing
			return state
		}
		rc = NewRecalibrator(defaultKappa)
		return rc
	})
	return rc
}
