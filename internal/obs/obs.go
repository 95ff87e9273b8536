// Package obs is the kernel-wide observability subsystem: phase spans,
// per-worker counters and accumulator statistics collected during a
// masked-SpGEMM run, exposed as a machine-readable Stats snapshot.
//
// The paper's whole argument is about *where* masked-SpGEMM time goes —
// tiling balance (Eq. 2), iteration-space choice (Eq. 3), accumulator
// resets — so the kernel records exactly those quantities: wall time per
// plan/exec phase, tiles/rows/FLOPs per worker (load imbalance from the
// tiling policy becomes a min/max/mean over workers), co-iterate vs
// linear-scan picks from the Eq. 3 cost model, and marker overflows and
// hash probe traffic from the accumulators.
//
// A nil *Recorder is the disabled state: every method nil-checks and
// returns immediately, allocating nothing, so the kernel can thread a
// recorder unconditionally and pay (close to) nothing when observability
// is off. Counters are exact, not sampled — a counter-parity test in
// internal/core asserts they equal values computed independently from
// the inputs.
//
// Runs record through a RunScope (Recorder.StartRun), which collects one
// run's spans and counters privately and folds them into the Recorder's
// cumulative totals once, at End. A Recorder accumulates across runs
// until Reset; to read one run on its own, Reset before it and read
// Stats after it.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one span of the kernel pipeline.
type Phase int

const (
	// PhasePlanRowWork is the Eq. 2 per-row work estimation.
	PhasePlanRowWork Phase = iota
	// PhasePlanPrefixSum is the prefix sum behind FLOP-balanced tiling.
	PhasePlanPrefixSum
	// PhasePlanTileBuild is the tile-boundary placement.
	PhasePlanTileBuild
	// PhasePlanRowCap is the accumulator row-capacity scan (max nnz of a
	// mask row; plus the flop bound under vanilla iteration).
	PhasePlanRowCap
	// PhaseExecKernel is the numeric kernel: the tile loop itself.
	PhaseExecKernel
	// PhaseExecAssemble is the CSR stitching of per-tile outputs.
	PhaseExecAssemble
	// PhasePlanLevels is the triangular-solve level-set discovery and
	// wave coarsening: dependency depths, substitution order, and the
	// merge/split of levels into FLOP-balanced waves.
	PhasePlanLevels
	// PhaseExecSolve is the substitution kernel of the triangular solve.
	PhaseExecSolve
	numPhases
)

// phaseNames are the stable identifiers used in the JSON schema;
// changing one is a schema break (appending is additive and keeps the
// schema tag).
var phaseNames = [numPhases]string{
	"plan.row_work",
	"plan.prefix_sum",
	"plan.tile_build",
	"plan.row_cap",
	"exec.kernel",
	"exec.assemble",
	"plan.levels",
	"exec.solve",
}

func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// WorkerCounters is one worker's counter block. Each worker owns one
// block for the duration of a run; blocks are padded to two cache lines
// so neighboring workers never false-share (the adjacent-line
// prefetcher pulls pairs; TestCounterBlockLayout pins the size). The
// fields are atomic; each block has one writer at a time, and
// RunScope.End folds it once the run's workers have returned.
type WorkerCounters struct {
	// Tiles is the number of tiles this worker claimed and executed.
	Tiles atomic.Int64
	// Rows is the number of output rows this worker iterated.
	Rows atomic.Int64
	// Flops is the Eq. 2 flop volume Σ nnz(B[k,:]) over the A entries of
	// the rows this worker processed — the same estimate the FLOP-balanced
	// tiler splits on, so per-worker Flops measures how well the tiling
	// policy actually balanced the work. Rows skipped as dead contribute
	// nothing: a row with an empty mask row (outside Vanilla).
	Flops atomic.Int64
	// CoIterPicks and LinearPicks count the hybrid iteration space's
	// per-(i,k) Eq. 3 decisions: co-iterate (binary search) vs linear scan.
	CoIterPicks atomic.Int64
	// LinearPicks counts the linear-scan side of the hybrid decision.
	LinearPicks atomic.Int64
	// Gathered is the number of output entries this worker emitted.
	Gathered atomic.Int64
	_        [128 - 6*8]byte // pad to 2 cache lines
}

// load reads the block's current values as a plain CounterSet.
func (c *WorkerCounters) load() CounterSet {
	return CounterSet{
		Tiles:       c.Tiles.Load(),
		Rows:        c.Rows.Load(),
		Flops:       c.Flops.Load(),
		CoIterPicks: c.CoIterPicks.Load(),
		LinearPicks: c.LinearPicks.Load(),
		Gathered:    c.Gathered.Load(),
	}
}

// store overwrites the block with v field by field; the atomic fields
// carry a noCopy sentinel, so the block cannot be assigned wholesale.
func (c *WorkerCounters) store(v CounterSet) {
	c.Tiles.Store(v.Tiles)
	c.Rows.Store(v.Rows)
	c.Flops.Store(v.Flops)
	c.CoIterPicks.Store(v.CoIterPicks)
	c.LinearPicks.Store(v.LinearPicks)
	c.Gathered.Store(v.Gathered)
}

// reset zeroes the block.
func (c *WorkerCounters) reset() { c.store(CounterSet{}) }

// AccumCounters are the accumulator-side statistics, aggregated over
// all worker accumulators (see internal/accum.Stats).
type AccumCounters struct {
	// MarkerClears counts full state resets forced by marker overflow —
	// the Fig. 13 bit-width trade-off made visible.
	MarkerClears int64 `json:"marker_clears"`
	// TableGrows counts hash-table doublings (a row exceeded the mask
	// bound the table was sized by).
	TableGrows int64 `json:"table_grows"`
	// HashProbes counts hash-table probe sequences (one per lookup).
	HashProbes int64 `json:"hash_probes"`
	// HashCollisions counts extra probe steps past the home slot.
	HashCollisions int64 `json:"hash_collisions"`
	// SpilledRows counts rows a dense window routed to its spill table
	// (their mask spanned more columns than the window).
	SpilledRows int64 `json:"spilled_rows"`
}

// add folds o into c. Every counter family has exactly one such add,
// shared by run scopes and the recorder's fold.
func (c *AccumCounters) add(o AccumCounters) {
	c.MarkerClears += o.MarkerClears
	c.TableGrows += o.TableGrows
	c.HashProbes += o.HashProbes
	c.HashCollisions += o.HashCollisions
	c.SpilledRows += o.SpilledRows
}

// PoolCounters are the execution-engine pool statistics: workspace
// checkout outcomes and plan-cache outcomes (see internal/exec). The
// kernel folds per-run deltas of the engine's monotonic counters into
// the recorder, so a snapshot attributes pool traffic to the runs it
// covers. Note the attribution is per engine, not per run: when several
// concurrent runs share one engine, each run's delta includes the
// others' overlapping traffic.
type PoolCounters struct {
	// Hits counts workspace checkouts served from the pool; Misses
	// counts checkouts that constructed fresh state.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Steals counts checkouts served by a larger size-class bucket.
	Steals int64 `json:"steals"`
	// Resizes counts in-place growths of a pooled workspace.
	Resizes int64 `json:"resizes"`
	// Evictions counts idle workspaces dropped at release because the
	// pool held its cap.
	Evictions int64 `json:"evictions"`
	// Quarantined counts workspaces dropped at release because their run
	// poisoned them (panic, cancellation or injected fault mid-run); a
	// quarantined workspace is never pooled again.
	Quarantined int64 `json:"quarantined"`
	// PlanHits and PlanMisses count plan-cache outcomes.
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
}

// add folds o into c.
func (c *PoolCounters) add(o PoolCounters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Steals += o.Steals
	c.Resizes += o.Resizes
	c.Evictions += o.Evictions
	c.Quarantined += o.Quarantined
	c.PlanHits += o.PlanHits
	c.PlanMisses += o.PlanMisses
}

// Recorder collects phase spans, per-worker counters and accumulator
// statistics for one kernel (or a sequence of runs of the same kernel).
// A nil *Recorder disables all collection: every method is nil-safe and
// the nil paths allocate nothing.
//
// Runs record through StartRun/RunScope: each run writes a scope of its
// own, so overlapping runs (concurrent Multiply calls sharing a
// recorder) never write the same counters, and the cumulative totals
// change only when a scope ends (and through Span, which records
// outside any run).
type Recorder struct {
	mu sync.Mutex
	// t and workers are the cumulative counter state, folded under mu.
	t       tally
	workers []CounterSet
	// free holds ended scopes for the next StartRun, so a warm run
	// allocates no scope, counter blocks or scratch.
	free []*RunScope
}

// NewRecorder returns an empty enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether the recorder collects anything (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Reset discards everything recorded so far.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The worker entries survive zeroed, so a reused recorder reports
	// the same worker ids.
	clear(r.workers)
	r.t = tally{}
}

// nop is the shared no-op closer: the disabled paths return it instead
// of allocating a closure.
var nop = func() {}

// Span starts a phase span outside any run and returns its closer,
// which adds the elapsed wall time to the phase's total. Nil recorders
// return a shared no-op without allocating; the enabled path allocates
// the closer. Runs record their spans through RunScope.Span instead;
// outside tests, the benchmark's obs.span_ns probe is now its only
// caller.
func (r *Recorder) Span(p Phase) func() {
	if r == nil {
		return nop
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		r.mu.Lock()
		r.t.spans[p] += d
		r.t.counts[p]++
		r.mu.Unlock()
	}
}

// SchedCounters are the wave-executor statistics of level-scheduled
// runs (the triangular solve): how many dependency-carrying runs
// happened, how their level sets coarsened into waves, and what the
// wave barriers cost. Flat single-wave SpGEMM runs record nothing here,
// so the block stays zero — and is omitted from tables — on pure
// multiply workloads. A solve that ran serially records its Levels
// only: every other counter describes waves that were executed.
type SchedCounters struct {
	// WaveRuns counts wave-scheduled runs.
	WaveRuns int64 `json:"wave_runs"`
	// Levels counts raw dependency levels before coarsening, summed
	// across solves, serial ones included.
	Levels int64 `json:"levels"`
	// Waves counts executed waves after coarsening, summed across runs.
	Waves int64 `json:"waves"`
	// SerialWaves counts executed single-tile waves (runs of narrow
	// levels merged into one tile, executed in substitution order
	// between barriers).
	SerialWaves int64 `json:"serial_waves"`
	// Barriers counts barrier arrivals: one per worker per crossed wave
	// boundary.
	Barriers int64 `json:"barriers"`
	// BarrierWaitNs is the cumulative time workers spent parked at wave
	// barriers waiting for stragglers.
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
}

// add folds o into c.
func (c *SchedCounters) add(o SchedCounters) {
	c.WaveRuns += o.WaveRuns
	c.Levels += o.Levels
	c.Waves += o.Waves
	c.SerialWaves += o.SerialWaves
	c.Barriers += o.Barriers
	c.BarrierWaitNs += o.BarrierWaitNs
}
