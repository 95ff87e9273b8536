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
// until Reset; Stats snapshots can be subtracted (Stats.Sub) to isolate
// a window, and Recorder.LastRun serves the last ended run on its own.
package obs

import (
	"context"
	"math"
	"math/bits"
	"runtime/pprof"
	"runtime/trace"
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
	// PhaseExecSolve is the wave-scheduled substitution kernel of the
	// masked triangular solve.
	PhaseExecSolve
	numPhases
)

// phaseNames are the stable identifiers used in the JSON schema and in
// pprof labels; changing one is a schema break (appending is additive
// and keeps stats/v1).
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
// prefetcher pulls pairs). The fields are atomic so that a slot can be
// read (by Stats) while a run is still incrementing it, and so the
// atomicpad analyzer can mechanically reject any plain load or store
// that would reintroduce a data race.
//
//spgemm:padded
type WorkerCounters struct {
	// Tiles is the number of tiles this worker claimed and executed.
	Tiles atomic.Int64
	// Rows is the number of output rows this worker iterated.
	Rows atomic.Int64
	// Flops is the Eq. 2 flop volume Σ nnz(B[k,:]) over the A entries of
	// the rows this worker processed — the same estimate the FLOP-balanced
	// tiler splits on, so per-worker Flops measures how well the tiling
	// policy actually balanced the work. Rows skipped as dead contribute
	// nothing: a row with an empty mask row (outside Vanilla), a row with
	// a full mask row under a complemented mask, a chain row whose second
	// mask row is empty.
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

// add folds k × o into c: k = 1 accumulates, k = −1 subtracts. Every
// counter family has exactly one such add, shared by run scopes, the
// recorder's fold, Stats.Add and Stats.Sub.
func (c *AccumCounters) add(o AccumCounters, k int64) {
	c.MarkerClears += k * o.MarkerClears
	c.TableGrows += k * o.TableGrows
	c.HashProbes += k * o.HashProbes
	c.HashCollisions += k * o.HashCollisions
	c.SpilledRows += k * o.SpilledRows
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
	// Evictions counts demotions from the bounded hot tier to the
	// GC-managed overflow tier.
	Evictions int64 `json:"evictions"`
	// Quarantined counts workspaces dropped at release because their run
	// poisoned them (panic, cancellation or injected fault mid-run); a
	// quarantined workspace is never pooled again.
	Quarantined int64 `json:"quarantined"`
	// PlanHits and PlanMisses count plan-cache outcomes.
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
}

// add folds k × o into c.
func (c *PoolCounters) add(o PoolCounters, k int64) {
	c.Hits += k * o.Hits
	c.Misses += k * o.Misses
	c.Steals += k * o.Steals
	c.Resizes += k * o.Resizes
	c.Evictions += k * o.Evictions
	c.Quarantined += k * o.Quarantined
	c.PlanHits += k * o.PlanHits
	c.PlanMisses += k * o.PlanMisses
}

// FusedCounters are the fused-pipeline statistics: how chained
// multiplies were executed and how much intermediate data stayed in
// tile staging buffers instead of a fully assembled CSR (see
// internal/core's fused pipeline).
type FusedCounters struct {
	// ChainRuns counts fused two-multiply chains; SelectRuns counts
	// multiply+select fusions (k-truss prune); StreamRuns counts
	// multiply+consume fusions that skipped assembly entirely.
	ChainRuns  int64 `json:"chain_runs"`
	SelectRuns int64 `json:"select_runs"`
	StreamRuns int64 `json:"stream_runs"`
	// StagedTiles counts intermediate tiles staged whole (the Eq. 2
	// fusion model predicted the tile fits the cache budget);
	// StreamedTiles counts tiles processed row-at-a-time because their
	// estimated intermediate footprint exceeded it.
	StagedTiles   int64 `json:"staged_tiles"`
	StreamedTiles int64 `json:"streamed_tiles"`
	// MidEntries is the number of intermediate entries that lived only
	// in tile staging buffers; MidBytes is their payload volume — the
	// DRAM traffic a materialized intermediate CSR would have cost.
	MidEntries int64 `json:"mid_entries"`
	MidBytes   int64 `json:"mid_bytes"`
	// SelectKept and SelectDropped count the per-entry outcomes of
	// fused selects.
	SelectKept    int64 `json:"select_kept"`
	SelectDropped int64 `json:"select_dropped"`
}

// add folds k × o into f.
func (f *FusedCounters) add(o FusedCounters, k int64) {
	f.ChainRuns += k * o.ChainRuns
	f.SelectRuns += k * o.SelectRuns
	f.StreamRuns += k * o.StreamRuns
	f.StagedTiles += k * o.StagedTiles
	f.StreamedTiles += k * o.StreamedTiles
	f.MidEntries += k * o.MidEntries
	f.MidBytes += k * o.MidBytes
	f.SelectKept += k * o.SelectKept
	f.SelectDropped += k * o.SelectDropped
}

// RecalCounters are the online cost-model recalibration statistics (see
// internal/model's recalibrator): how often the κ estimator observed a
// run, explored a neighboring κ, recentered on a better one, or snapped
// back to the static default. KappaLast is a gauge — the most recently
// applied κ — not a counter.
type RecalCounters struct {
	Updates      int64   `json:"updates"`
	Explorations int64   `json:"explorations"`
	Recenters    int64   `json:"recenters"`
	Snapbacks    int64   `json:"snapbacks"`
	KappaLast    float64 `json:"kappa_last"`
}

// add folds k × o into c. KappaLast is a gauge, not a counter: a
// nonzero value folded in (k > 0) replaces it, and a subtraction
// leaves it as it is.
func (c *RecalCounters) add(o RecalCounters, k int64) {
	c.Updates += k * o.Updates
	c.Explorations += k * o.Explorations
	c.Recenters += k * o.Recenters
	c.Snapbacks += k * o.Snapbacks
	if k > 0 && o.KappaLast != 0 {
		c.KappaLast = o.KappaLast
	}
}

// Recorder collects phase spans, per-worker counters and accumulator
// statistics for one kernel (or a sequence of runs of the same kernel).
// A nil *Recorder disables all collection: every method is nil-safe and
// the nil paths allocate nothing.
//
// Runs record through StartRun/RunScope, which scopes spans and
// counters by a multiply sequence id so overlapping runs (fused chains,
// concurrent Multiply calls sharing a recorder) never bleed into each
// other's per-run snapshots; the cumulative totals change only when a
// scope ends (and through Span, AddRetry and AddRecal, which record
// outside any run).
type Recorder struct {
	mu  sync.Mutex
	seq int64
	// t is the cumulative counter state, folded under mu.
	t tally
	// sink is the optional live-telemetry tap (see Sink); stored behind
	// an atomic pointer so recording paths read it without the mutex.
	sink atomic.Pointer[Sink]
	// lastRun is the snapshot of the most recently ended run scope.
	lastRun Stats
	hasLast bool
	// scopePool recycles per-run worker counter blocks across scopes.
	scopePool [][]WorkerCounters
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
	clear(r.t.workers)
	r.t = tally{workers: r.t.workers}
	r.lastRun = Stats{}
	r.hasLast = false
}

// nop is the shared no-op span closer: the nil fast path returns it
// instead of allocating a closure.
var nop = func() {}

// Span starts a phase span and returns its closer. The closer adds the
// elapsed wall time to the phase's total. Nil recorders return a shared
// no-op without allocating; spans are per run, not per tile, so the
// enabled path's closure allocation is negligible.
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
		r.emitPhase(0, p, d)
	}
}

// Do runs f under a pprof label marking the phase, so CPU samples taken
// during f — including on goroutines f spawns, which inherit labels —
// are attributed to the phase in pprof output. Nil recorders call f
// directly.
func (r *Recorder) Do(ctx context.Context, p Phase, f func()) {
	if r == nil {
		f()
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.Do(ctx, pprof.Labels("spgemm_phase", p.String()), func(context.Context) { f() })
}

// TileRegion opens a runtime/trace region covering one tile batch and
// returns its closer. Regions appear in `go tool trace` under the task
// timeline, attributing execution-trace slices to individual batches.
// The region is only created while tracing is active; otherwise (and on
// nil recorders) the shared no-op is returned.
func (r *Recorder) TileRegion(ctx context.Context) func() {
	if r == nil || !trace.IsEnabled() {
		return nop
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return trace.StartRegion(ctx, "spgemm.tile_batch").End
}

// RetryCounters are the retry-and-degradation statistics of the facade's
// resilience layer: per-attempt and per-outcome counts of the retry
// ladder around Multiply/MxM (see spgemm.Options.Retry).
type RetryCounters struct {
	// Attempts counts every execution attempt, including first tries.
	Attempts int64 `json:"attempts"`
	// Retries counts attempts after the first (Attempts - calls that
	// needed no retry is not derivable from this pair alone, so both are
	// kept).
	Retries int64 `json:"retries"`
	// Degradations counts attempts that ran on a narrowed execution path
	// (serial, unpooled) rather than the configured one.
	Degradations int64 `json:"degradations"`
	// Failures counts operations whose final attempt still failed.
	Failures int64 `json:"failures"`
	// Stalls counts attempts that failed with ErrStalled specifically.
	Stalls int64 `json:"stalls"`
}

// add folds k × o into c.
func (c *RetryCounters) add(o RetryCounters, k int64) {
	c.Attempts += k * o.Attempts
	c.Retries += k * o.Retries
	c.Degradations += k * o.Degradations
	c.Failures += k * o.Failures
	c.Stalls += k * o.Stalls
}

// AddRetry folds retry-ladder statistics into the totals.
func (r *Recorder) AddRetry(c RetryCounters) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.t.retry.add(c, 1)
	r.mu.Unlock()
	if c.Attempts > 0 {
		r.Event(EventRetry, PhaseNone, c.Retries, c.Degradations)
	}
	if c.Stalls > 0 {
		r.Event(EventStall, PhaseNone, c.Stalls, 0)
	}
	if c.Failures > 0 {
		r.Event(EventFailure, PhaseNone, c.Failures, 0)
	}
}

// WaveHistBuckets is the bucket count of the wave-shape histograms:
// log2 buckets, so bucket b (b > 0) covers values in [2^(b-1), 2^b) and
// the last bucket absorbs everything wider.
const WaveHistBuckets = 16

// WaveBucket returns the log2 histogram bucket of v: bits.Len64,
// clamped to the last bucket. Zero and negative values land in bucket 0.
func WaveBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= WaveHistBuckets {
		return WaveHistBuckets - 1
	}
	return b
}

// SchedCounters are the wave-executor statistics of level-scheduled
// runs (masked triangular solve): how many dependency-carrying runs
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
	// WaveTiles and WaveFlops are log2-bucket histograms (see WaveBucket)
	// of per-wave tile counts and Eq. 2 flop volumes.
	WaveTiles [WaveHistBuckets]int64 `json:"wave_tiles"`
	WaveFlops [WaveHistBuckets]int64 `json:"wave_flops"`
}

// add folds k × o into c, elementwise on the histograms.
func (c *SchedCounters) add(o SchedCounters, k int64) {
	c.WaveRuns += k * o.WaveRuns
	c.Levels += k * o.Levels
	c.Waves += k * o.Waves
	c.SerialWaves += k * o.SerialWaves
	c.Barriers += k * o.Barriers
	c.BarrierWaitNs += k * o.BarrierWaitNs
	for i := range c.WaveTiles {
		c.WaveTiles[i] += k * o.WaveTiles[i]
		c.WaveFlops[i] += k * o.WaveFlops[i]
	}
}

// AddRecal folds recalibration statistics into the totals. KappaLast,
// being a gauge, replaces the stored value when nonzero.
func (r *Recorder) AddRecal(c RecalCounters) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.t.recal.add(c, 1)
	r.mu.Unlock()
	if c.Snapbacks > 0 {
		r.Event(EventSnapback, PhaseNone, c.Snapbacks, int64(math.Float64bits(c.KappaLast)))
	}
}
