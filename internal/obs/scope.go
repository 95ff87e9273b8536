package obs

import (
	"context"
	"time"
)

// RunScope scopes one multiply's observability data under a unique
// sequence id; it is the only way a run records. A scope collects one
// run's spans, worker counters and accumulator/pool/fused/sched deltas
// privately, so two multiplies in flight on one Recorder — a fused
// chain interleaving its two products, or concurrent Multiply calls
// sharing a recorder — never bleed into each other. End folds the
// scope into the recorder's cumulative totals exactly once and
// publishes the per-run snapshot (Recorder.LastRun).
//
// A nil *RunScope (from a nil Recorder) disables everything: every
// method nil-checks and the disabled paths allocate nothing. A scope is
// owned by one run: its methods may be called from that run's worker
// goroutines (WorkerSlots hands each worker a private padded block),
// but Start/End pair once.
type RunScope struct {
	r   *Recorder
	seq int64
	// start anchors the run's wall-clock latency, pushed to the live
	// telemetry sink (Recorder.emitRun) when a completed scope ends.
	start time.Time

	// t is the run's private counter state. t.runs becomes 1 when the
	// run is marked complete: End counts only completed runs toward Runs
	// and LastRun, so a run that errors out mid-pipeline still folds its
	// partial spans into the cumulative totals without inflating the
	// run count. t.workers is filled from slots at End.
	t tally
	// slots are the padded blocks the run's workers write; they are
	// checked out of the recorder's scope pool and returned by End, so
	// warm loops do not allocate a counter block per run.
	slots []WorkerCounters
}

// StartRun opens a new run scope with a fresh sequence id. Nil
// recorders return a nil scope (whose methods are all no-ops).
func (r *Recorder) StartRun() *RunScope {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.seq++
	seq := r.seq
	var slots []WorkerCounters
	if n := len(r.scopePool); n > 0 {
		slots = r.scopePool[n-1]
		r.scopePool[n-1] = nil
		r.scopePool = r.scopePool[:n-1]
	}
	r.mu.Unlock()
	r.EventSeq(seq, EventRunStart, PhaseNone, 0, 0)
	return &RunScope{r: r, seq: seq, start: time.Now(), slots: slots}
}

// Seq returns the scope's multiply sequence id (0 for nil scopes).
func (s *RunScope) Seq() int64 {
	if s == nil {
		return 0
	}
	return s.seq
}

// Enabled reports whether the scope records anything (false for nil).
func (s *RunScope) Enabled() bool { return s != nil }

// Span starts a phase span scoped to this run and returns its closer.
// The span accumulates into the scope only; End publishes it. Safe to
// call from the single goroutine driving the run's phases.
func (s *RunScope) Span(p Phase) func() {
	if s == nil {
		return nop
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		s.t.spans[p] += d
		s.t.counts[p]++
		s.r.emitPhase(s.seq, p, d)
	}
}

// Event forwards a structured flight-recorder event scoped to this
// run's sequence id. Nil-safe; with no sink attached the cost is one
// nil check and one atomic load.
//
//spgemm:hotpath
func (s *RunScope) Event(k EventKind, p Phase, a, b int64) {
	if s == nil {
		return
	}
	s.r.EventSeq(s.seq, k, p, a, b)
}

// Do runs f under the recorder's pprof phase label (see Recorder.Do).
func (s *RunScope) Do(ctx context.Context, p Phase, f func()) {
	if s == nil {
		f()
		return
	}
	s.r.Do(ctx, p, f)
}

// TileRegion opens a runtime/trace region for one tile batch (see
// Recorder.TileRegion).
func (s *RunScope) TileRegion(ctx context.Context) func() {
	if s == nil {
		return nop
	}
	return s.r.TileRegion(ctx)
}

// WorkerSlots returns n per-worker counter blocks private to this run,
// growing the scope's pooled backing array if needed. Returns nil on a
// nil scope.
func (s *RunScope) WorkerSlots(n int) []WorkerCounters {
	if s == nil {
		return nil
	}
	if len(s.slots) < n {
		grown := make([]WorkerCounters, n)
		for i := range s.slots {
			grown[i].store(s.slots[i].load())
		}
		s.slots = grown
	}
	return s.slots[:n]
}

// AddAccum folds accumulator statistics (a per-run delta) into the scope.
func (s *RunScope) AddAccum(a AccumCounters) {
	if s == nil {
		return
	}
	s.t.accum.add(a, 1)
}

// AddPool folds execution-engine pool statistics into the scope.
func (s *RunScope) AddPool(p PoolCounters) {
	if s == nil {
		return
	}
	s.t.pool.add(p, 1)
}

// AddFused folds fused-pipeline statistics into the scope.
func (s *RunScope) AddFused(f FusedCounters) {
	if s == nil {
		return
	}
	s.t.fused.add(f, 1)
}

// AddSched folds wave-executor statistics into the scope.
func (s *RunScope) AddSched(c SchedCounters) {
	if s == nil {
		return
	}
	s.t.sched.add(c, 1)
}

// MarkComplete flags the run as having finished successfully, so End
// counts it toward Recorder runs and publishes it as LastRun.
func (s *RunScope) MarkComplete() {
	if s == nil {
		return
	}
	s.t.runs = 1
}

// End folds the scope into the recorder's cumulative totals exactly
// once, publishes the per-run snapshot as Recorder.LastRun, recycles
// the worker blocks, and returns the snapshot. Safe on nil scopes
// (returns a zero snapshot). The scope must not be used after End.
func (s *RunScope) End() Stats {
	if s == nil {
		return Stats{Schema: StatsSchema}
	}
	s.t.workers = make([]CounterSet, len(s.slots))
	for w := range s.slots {
		s.t.workers[w] = s.slots[w].load()
		s.slots[w].reset()
	}
	snap := s.t.stats(s.seq)
	if s.t.runs > 0 {
		s.r.emitRun(time.Since(s.start))
		s.r.EventSeq(s.seq, EventRunEnd, PhaseNone, snap.Totals.Tiles, snap.Totals.Gathered)
	}
	s.r.foldScope(s, snap)
	s.r = nil
	s.slots = nil
	return snap
}

// foldScope merges one ended scope into the cumulative totals,
// publishes its snapshot as LastRun when the run completed, and returns
// its worker blocks to the pool. Called exactly once per scope, by End,
// which guarantees a non-nil receiver.
func (r *Recorder) foldScope(s *RunScope, snap Stats) {
	r.mu.Lock()
	r.t.add(&s.t)
	if s.t.runs > 0 {
		r.lastRun = snap
		r.hasLast = true
	}
	if s.slots != nil {
		r.scopePool = append(r.scopePool, s.slots)
	}
	r.mu.Unlock()
}

// LastRun returns the per-run snapshot of the most recently ended run
// scope — the run's own spans and counters, isolated by its sequence id
// rather than by subtracting global snapshots (which double-counts when
// runs overlap). ok is false when no scoped run has completed (or the
// recorder is nil).
func (r *Recorder) LastRun() (Stats, bool) {
	if r == nil {
		return Stats{Schema: StatsSchema}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastRun, r.hasLast
}
