package obs

import (
	"context"
	"runtime/trace"
	"time"
)

// RunScope is what one run writes its observability data into; it is
// the only way a run records. A scope collects one run's spans, worker
// counters and accumulator/pool/sched deltas privately, so two
// runs in flight on one Recorder — concurrent Multiply calls sharing a
// recorder — never write the same counters. End folds the scope into
// the recorder's cumulative totals under one lock and returns it to the
// recorder's free list, so a warm run allocates nothing here.
//
// A nil *RunScope (from a nil Recorder) disables everything: every
// method nil-checks and the disabled paths allocate nothing. A scope is
// owned by one run: its methods may be called from that run's worker
// goroutines (WorkerSlots hands each worker a private block), but
// StartRun/End pair once and the scope must not be used after End.
type RunScope struct {
	r *Recorder

	// t is the run's private counter state. t.runs becomes 1 when the
	// run is marked complete: End counts only completed runs toward Runs,
	// so a run that errors out mid-pipeline still folds its partial spans
	// into the cumulative totals without inflating the run count.
	t tally
	// slots are the padded blocks the run's workers write; they stay
	// with the pooled scope.
	slots []WorkerCounters
}

// StartRun opens a run scope: an ended one from the free list, or a new
// one. Nil recorders return a nil scope (whose methods are all no-ops).
func (r *Recorder) StartRun() *RunScope {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var s *RunScope
	if n := len(r.free); n > 0 {
		s = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	}
	r.mu.Unlock()
	if s == nil {
		s = &RunScope{r: r}
	}
	return s
}

// Enabled reports whether the scope records anything (false for nil).
func (s *RunScope) Enabled() bool { return s != nil }

// Now opens a span: it returns the start time the caller holds until
// it closes the span with Span. Nil scopes return the zero time without
// reading the clock.
func (s *RunScope) Now() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span closes a span opened at start (Now) by adding the time since to
// phase p. Safe to call from the single goroutine driving the run's
// phases.
func (s *RunScope) Span(p Phase, start time.Time) {
	if s == nil {
		return
	}
	s.t.spans[p] += time.Since(start)
	s.t.counts[p]++
}

// TileRegion opens a runtime/trace region covering one tile batch and
// returns its closer. Regions appear in `go tool trace` under the task
// timeline, attributing execution-trace slices to individual batches.
// The region is only created while tracing is active; otherwise (and on
// nil scopes) the shared no-op is returned.
func (s *RunScope) TileRegion(ctx context.Context) func() {
	if s == nil || !trace.IsEnabled() {
		return nop
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return trace.StartRegion(ctx, "spgemm.tile_batch").End
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
	s.t.accum.add(a)
}

// AddPool folds execution-engine pool statistics into the scope.
func (s *RunScope) AddPool(p PoolCounters) {
	if s == nil {
		return
	}
	s.t.pool.add(p)
}

// AddSched folds wave-executor statistics into the scope.
func (s *RunScope) AddSched(c SchedCounters) {
	if s == nil {
		return
	}
	s.t.sched.add(c)
}

// MarkComplete flags the run as having finished successfully, so End
// counts it toward the recorder's runs.
func (s *RunScope) MarkComplete() {
	if s == nil {
		return
	}
	s.t.runs = 1
}

// End folds the scope into the recorder's cumulative totals exactly
// once, zeroes it and returns it to the recorder's free list. Safe on
// nil scopes.
func (s *RunScope) End() {
	if s == nil {
		return
	}
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	r.t.add(&s.t)
	s.t = tally{}
	if n := len(s.slots) - len(r.workers); n > 0 {
		r.workers = append(r.workers, make([]CounterSet, n)...)
	}
	for w := range s.slots {
		r.workers[w].add(s.slots[w].load())
		s.slots[w].reset()
	}
	r.free = append(r.free, s)
}
