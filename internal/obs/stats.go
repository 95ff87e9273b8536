package obs

import (
	"fmt"
	"io"
	"time"
)

// StatsSchema identifies the JSON layout of a Stats document. Bump the
// version only on breaking changes; additive fields keep the tag.
const StatsSchema = "maskedspgemm/stats/v6"

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

// add folds o into c.
func (c *CounterSet) add(o CounterSet) {
	c.Tiles += o.Tiles
	c.Rows += o.Rows
	c.Flops += o.Flops
	c.CoIterPicks += o.CoIterPicks
	c.LinearPicks += o.LinearPicks
	c.Gathered += o.Gathered
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
	// Sched is the wave-executor statistics of level-scheduled runs
	// (zero when only flat single-wave kernels ran).
	Sched SchedCounters `json:"sched"`
}

// tally is the counter state a run scope collects and a Recorder sums
// (with its per-worker totals beside it), so ending a scope is one fold
// (add).
type tally struct {
	runs   int64
	spans  [numPhases]time.Duration
	counts [numPhases]int64
	accum  AccumCounters
	pool   PoolCounters
	sched  SchedCounters
}

// add folds o into t.
func (t *tally) add(o *tally) {
	t.runs += o.runs
	for p := range t.spans {
		t.spans[p] += o.spans[p]
		t.counts[p] += o.counts[p]
	}
	t.accum.add(o.accum)
	t.pool.add(o.pool)
	t.sched.add(o.sched)
}

// stats renders t and the per-worker totals as a snapshot that shares
// no memory with either.
func (t *tally) stats(workers []CounterSet) Stats {
	s := Stats{
		Schema: StatsSchema, Runs: t.runs,
		Accum: t.accum, Pool: t.pool, Sched: t.sched,
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
	if len(workers) > 0 {
		s.Workers = make([]WorkerStats, len(workers))
		for w, c := range workers {
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
		return t.stats(nil)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t.stats(r.workers)
}

// finalize recomputes the derived fields (Totals and the distributions)
// from the Workers list.
func (s *Stats) finalize() {
	s.Totals = CounterSet{}
	tiles := make([]int64, 0, len(s.Workers))
	flops := make([]int64, 0, len(s.Workers))
	for _, w := range s.Workers {
		s.Totals.add(w.CounterSet)
		tiles = append(tiles, w.Tiles)
		flops = append(flops, w.Flops)
	}
	s.TileDist = distOf(tiles)
	s.FlopDist = distOf(flops)
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
	if p := s.Pool; p.Hits+p.Misses+p.Steals+p.Quarantined+p.PlanHits+p.PlanMisses > 0 {
		lookups := p.Hits + p.Steals + p.Misses
		fmt.Fprintf(w, "  pool: hits=%d misses=%d steals=%d (%.1f%% hit) resizes=%d evictions=%d quarantined=%d plan hits/misses=%d/%d\n",
			p.Hits, p.Misses, p.Steals,
			100*float64(p.Hits+p.Steals)/float64(max(lookups, 1)),
			p.Resizes, p.Evictions, p.Quarantined, p.PlanHits, p.PlanMisses)
	}
	if c := s.Sched; c.WaveRuns > 0 {
		fmt.Fprintf(w, "  sched: wave-runs=%d levels=%d waves=%d (serial=%d) barriers=%d barrier-wait=%.3fms\n",
			c.WaveRuns, c.Levels, c.Waves, c.SerialWaves, c.Barriers,
			float64(c.BarrierWaitNs)/1e6)
	}
}
