package obs

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// StatsSchema identifies the JSON layout of a Stats document. Bump the
// version only on breaking changes; additive fields keep the tag.
const StatsSchema = "maskedspgemm/stats/v3"

// PhaseStats is one pipeline phase's accumulated wall time.
type PhaseStats struct {
	// Phase is the stable phase identifier (e.g. "exec.kernel").
	Phase string `json:"phase"`
	// Millis is the total wall time spent in the phase.
	Millis float64 `json:"millis"`
	// Count is the number of spans folded into Millis.
	Count int64 `json:"count"`
}

// CounterSet is one set of kernel counters — either a single worker's
// or the totals across workers. Field meanings match WorkerCounters.
type CounterSet struct {
	Tiles       int64 `json:"tiles"`
	Rows        int64 `json:"rows"`
	Flops       int64 `json:"flops"`
	CoIterPicks int64 `json:"co_iter_picks"`
	LinearPicks int64 `json:"linear_picks"`
	Gathered    int64 `json:"gathered"`
}

// add folds k × o into c.
func (c *CounterSet) add(o CounterSet, k int64) {
	c.Tiles += k * o.Tiles
	c.Rows += k * o.Rows
	c.Flops += k * o.Flops
	c.CoIterPicks += k * o.CoIterPicks
	c.LinearPicks += k * o.LinearPicks
	c.Gathered += k * o.Gathered
}

// WorkerStats is one worker's counters in a Stats snapshot.
type WorkerStats struct {
	Worker int `json:"worker"`
	CounterSet
}

// Dist summarizes a per-worker quantity: min/max/mean over workers and
// the imbalance ratio max/mean (1.0 = perfect balance — the same metric
// tiling.Imbalance reports for tiles).
type Dist struct {
	Min       int64   `json:"min"`
	Max       int64   `json:"max"`
	Mean      float64 `json:"mean"`
	Imbalance float64 `json:"imbalance"`
}

func distOf(values []int64) Dist {
	if len(values) == 0 {
		return Dist{Imbalance: 1}
	}
	d := Dist{Min: values[0], Max: values[0]}
	var total int64
	for _, v := range values {
		if v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
		}
		total += v
	}
	d.Mean = float64(total) / float64(len(values))
	if d.Mean > 0 {
		d.Imbalance = float64(d.Max) / d.Mean
	} else {
		d.Imbalance = 1
	}
	return d
}

// Stats is a snapshot of a Recorder, a value that shares no memory
// with it — the machine-readable observability report. Phases appear
// in pipeline order (only phases that recorded at least one span);
// workers appear in id order.
type Stats struct {
	// Schema is always StatsSchema.
	Schema string `json:"schema"`
	// Seq is the multiply sequence id for per-run snapshots (RunScope /
	// Recorder.LastRun); 0 for cumulative snapshots.
	Seq int64 `json:"seq,omitempty"`
	// Runs is the number of kernel runs folded into the snapshot.
	Runs int64 `json:"runs"`
	// Phases is the per-phase wall-time breakdown.
	Phases []PhaseStats `json:"phases"`
	// Workers is the per-worker counter breakdown.
	Workers []WorkerStats `json:"workers"`
	// Totals is the sum of Workers.
	Totals CounterSet `json:"totals"`
	// TileDist and FlopDist summarize per-worker load balance.
	TileDist Dist `json:"tile_dist"`
	FlopDist Dist `json:"flop_dist"`
	// Accum is the accumulator-side statistics.
	Accum AccumCounters `json:"accum"`
	// Pool is the execution-engine workspace-pool and plan-cache
	// statistics (zero when no engine is configured).
	Pool PoolCounters `json:"pool"`
	// Fused is the fused-pipeline statistics (zero when no fused
	// multiplies ran).
	Fused FusedCounters `json:"fused"`
	// Retry is the retry-ladder statistics of the facade's resilience
	// layer (zero when no retry policy is configured).
	Retry RetryCounters `json:"retry"`
	// Sched is the wave-executor statistics of level-scheduled runs
	// (zero when only flat single-wave kernels ran).
	Sched SchedCounters `json:"sched"`
}

// tally is the counter state behind every snapshot: a Recorder's
// cumulative totals and one run scope's private data have this one
// shape, so ending a scope is one fold (add) and both snapshots are one
// render (stats).
type tally struct {
	runs    int64
	spans   [numPhases]time.Duration
	counts  [numPhases]int64
	workers []CounterSet
	accum   AccumCounters
	pool    PoolCounters
	fused   FusedCounters
	retry   RetryCounters
	sched   SchedCounters
}

// add folds o into t, growing t's worker list to cover o's.
func (t *tally) add(o *tally) {
	t.runs += o.runs
	for p := range t.spans {
		t.spans[p] += o.spans[p]
		t.counts[p] += o.counts[p]
	}
	if n := len(o.workers) - len(t.workers); n > 0 {
		t.workers = append(t.workers, make([]CounterSet, n)...)
	}
	for w := range o.workers {
		t.workers[w].add(o.workers[w], 1)
	}
	t.accum.add(o.accum, 1)
	t.pool.add(o.pool, 1)
	t.fused.add(o.fused, 1)
	t.retry.add(o.retry, 1)
	t.sched.add(o.sched, 1)
}

// stats renders t as a snapshot under sequence id seq (0 for the
// cumulative totals). The snapshot shares no memory with t.
func (t *tally) stats(seq int64) Stats {
	s := Stats{
		Schema: StatsSchema, Seq: seq, Runs: t.runs,
		Accum: t.accum, Pool: t.pool, Fused: t.fused,
		Retry: t.retry, Sched: t.sched,
	}
	for p := Phase(0); p < numPhases; p++ {
		if t.counts[p] == 0 {
			continue
		}
		s.Phases = append(s.Phases, PhaseStats{
			Phase:  p.String(),
			Millis: float64(t.spans[p]) / float64(time.Millisecond),
			Count:  t.counts[p],
		})
	}
	if len(t.workers) > 0 {
		s.Workers = make([]WorkerStats, len(t.workers))
		for w, c := range t.workers {
			s.Workers[w] = WorkerStats{Worker: w, CounterSet: c}
		}
	}
	s.finalize()
	return s
}

// Stats snapshots the recorder's cumulative totals. Nil recorders
// return a zero snapshot (Schema still set, everything else empty).
func (r *Recorder) Stats() Stats {
	if r == nil {
		var t tally
		return t.stats(0)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t.stats(0)
}

// finalize recomputes the derived fields (Totals and the distributions)
// from the Workers list.
func (s *Stats) finalize() {
	s.Totals = CounterSet{}
	tiles := make([]int64, 0, len(s.Workers))
	flops := make([]int64, 0, len(s.Workers))
	for _, w := range s.Workers {
		s.Totals.add(w.CounterSet, 1)
		tiles = append(tiles, w.Tiles)
		flops = append(flops, w.Flops)
	}
	s.TileDist = distOf(tiles)
	s.FlopDist = distOf(flops)
}

// Sub returns the difference s − prev: the activity recorded between
// the two snapshots of the same recorder (e.g. one Multiply call).
// Phases are matched by name, workers by id; entries absent from prev
// carry over unchanged, and phases left with no spans are dropped.
func (s Stats) Sub(prev Stats) Stats {
	out := s
	out.Seq = 0
	out.Phases = slices.Clone(s.Phases)
	out.Workers = slices.Clone(s.Workers)
	out.Runs -= prev.Runs
	for _, p := range prev.Phases {
		if i := slices.IndexFunc(out.Phases, func(q PhaseStats) bool { return q.Phase == p.Phase }); i >= 0 {
			out.Phases[i].Millis -= p.Millis
			out.Phases[i].Count -= p.Count
		}
	}
	out.Phases = slices.DeleteFunc(out.Phases, func(p PhaseStats) bool { return p.Count <= 0 })
	for _, w := range prev.Workers {
		if i := slices.IndexFunc(out.Workers, func(v WorkerStats) bool { return v.Worker == w.Worker }); i >= 0 {
			out.Workers[i].add(w.CounterSet, -1)
		}
	}
	out.Accum.add(prev.Accum, -1)
	out.Pool.add(prev.Pool, -1)
	out.Fused.add(prev.Fused, -1)
	out.Retry.add(prev.Retry, -1)
	out.Sched.add(prev.Sched, -1)
	out.finalize()
	return out
}

// WriteTable renders the snapshot as an indented human-readable block.
func (s Stats) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "  runs: %d\n", s.Runs)
	if len(s.Phases) > 0 {
		fmt.Fprintf(w, "  %-18s %12s %8s\n", "phase", "millis", "spans")
		for _, p := range s.Phases {
			fmt.Fprintf(w, "  %-18s %12.3f %8d\n", p.Phase, p.Millis, p.Count)
		}
	}
	t := s.Totals
	fmt.Fprintf(w, "  totals: tiles=%d rows=%d flops=%d gathered=%d\n",
		t.Tiles, t.Rows, t.Flops, t.Gathered)
	if t.CoIterPicks+t.LinearPicks > 0 {
		fmt.Fprintf(w, "  hybrid picks: co-iterate=%d linear=%d (%.1f%% co-iterate)\n",
			t.CoIterPicks, t.LinearPicks,
			100*float64(t.CoIterPicks)/float64(t.CoIterPicks+t.LinearPicks))
	}
	if len(s.Workers) > 1 {
		fmt.Fprintf(w, "  workers: %d  tiles min/mean/max %d/%.1f/%d (imb %.2f)  flops min/mean/max %d/%.1f/%d (imb %.2f)\n",
			len(s.Workers),
			s.TileDist.Min, s.TileDist.Mean, s.TileDist.Max, s.TileDist.Imbalance,
			s.FlopDist.Min, s.FlopDist.Mean, s.FlopDist.Max, s.FlopDist.Imbalance)
	}
	a := s.Accum
	fmt.Fprintf(w, "  accum: marker-clears=%d table-grows=%d hash-probes=%d hash-collisions=%d spilled-rows=%d\n",
		a.MarkerClears, a.TableGrows, a.HashProbes, a.HashCollisions, a.SpilledRows)
	if f := s.Fused; f.SelectRuns+f.StreamRuns > 0 {
		fmt.Fprintf(w, "  fused: selects=%d streams=%d mid entries=%d (%d bytes) select kept/dropped=%d/%d\n",
			f.SelectRuns, f.StreamRuns, f.MidEntries, f.MidBytes,
			f.SelectKept, f.SelectDropped)
	}
	if p := s.Pool; p.Hits+p.Misses+p.Steals+p.Quarantined+p.PlanHits+p.PlanMisses > 0 {
		lookups := p.Hits + p.Steals + p.Misses
		fmt.Fprintf(w, "  pool: hits=%d misses=%d steals=%d (%.1f%% hit) resizes=%d evictions=%d quarantined=%d plan hits/misses=%d/%d\n",
			p.Hits, p.Misses, p.Steals,
			100*float64(p.Hits+p.Steals)/float64(max(lookups, 1)),
			p.Resizes, p.Evictions, p.Quarantined, p.PlanHits, p.PlanMisses)
	}
	if c := s.Retry; c.Attempts > 0 {
		fmt.Fprintf(w, "  retry: attempts=%d retries=%d degradations=%d failures=%d stalls=%d\n",
			c.Attempts, c.Retries, c.Degradations, c.Failures, c.Stalls)
	}
	if c := s.Sched; c.WaveRuns > 0 {
		fmt.Fprintf(w, "  sched: wave-runs=%d levels=%d waves=%d (serial=%d) barriers=%d barrier-wait=%.3fms\n",
			c.WaveRuns, c.Levels, c.Waves, c.SerialWaves, c.Barriers,
			float64(c.BarrierWaitNs)/1e6)
	}
}
