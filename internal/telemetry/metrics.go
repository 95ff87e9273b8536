package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
)

// This file renders the registry as Prometheus text exposition (format
// 0.0.4) and provides the minimal parser the smoke gate scrapes it back
// with. Only stdlib; summary-type metrics carry the windowed quantiles
// while _sum/_count stay cumulative (monotonic), which is the summary
// contract scrapers expect.

// quantiles reported for every latency summary.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// RequiredSeries is every metric family WriteMetrics emits, in emission
// order. The smoke gate fails the build if a scrape is missing any of
// them, and TestWriteMetricsParses pins that the emitted set is exactly
// this list, so a family cannot be added or dropped silently.
var RequiredSeries = []string{
	"spgemm_run_latency_seconds",
	"spgemm_phase_latency_seconds",
	"spgemm_runs_total",
	"spgemm_tiles_total",
	"spgemm_rows_total",
	"spgemm_flops_total",
	"spgemm_gathered_total",
	"spgemm_accum_marker_clears_total",
	"spgemm_accum_table_grows_total",
	"spgemm_accum_hash_probes_total",
	"spgemm_accum_hash_collisions_total",
	"spgemm_accum_spilled_rows_total",
	"spgemm_retry_attempts_total",
	"spgemm_retry_retries_total",
	"spgemm_retry_degradations_total",
	"spgemm_retry_failures_total",
	"spgemm_retry_stalls_total",
	"spgemm_wave_runs_total",
	"spgemm_wave_levels_total",
	"spgemm_waves_total",
	"spgemm_serial_waves_total",
	"spgemm_wave_barriers_total",
	"spgemm_wave_barrier_wait_seconds_total",
	"spgemm_pool_hits_total",
	"spgemm_pool_misses_total",
	"spgemm_pool_steals_total",
	"spgemm_pool_resizes_total",
	"spgemm_pool_evictions_total",
	"spgemm_pool_quarantined_total",
	"spgemm_plan_cache_hits_total",
	"spgemm_plan_cache_misses_total",
	"spgemm_pool_hit_rate",
	"spgemm_pool_idle",
	"spgemm_flightrec_events_total",
	"spgemm_flightrec_dropped_total",
	"spgemm_flightrec_dumps_total",
}

// metricsWriter accumulates exposition lines, tracking the first write
// error so call sites stay linear.
type metricsWriter struct {
	w   io.Writer
	err error
}

func (m *metricsWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

func (m *metricsWriter) header(name, help, typ string) {
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// summary emits one summary family: windowed quantiles, cumulative
// sum/count. labels is the pre-rendered label set without braces (""
// for none).
func (m *metricsWriter) summary(name, labels string, window, cum HistSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, q := range summaryQuantiles {
		m.printf("%s{%s%squantile=\"%g\"} %s\n",
			name, labels, sep, q, formatSeconds(window.Quantile(q)))
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	m.printf("%s_sum%s %s\n", name, suffix, formatSeconds(cum.Sum))
	m.printf("%s_count%s %d\n", name, suffix, cum.Count)
}

// formatSeconds renders nanoseconds as seconds with full float64
// precision ('g' keeps small latencies legible).
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WriteMetrics renders the registry (latency summaries, recorder
// counters, pool gauges, flight-recorder counters) as Prometheus text
// exposition. Counter values come from the most recently attached
// recorder's cumulative Stats; pool values prefer live engine counters
// over the recorder's folded per-run deltas when engines are attached.
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	if t == nil {
		return nil
	}
	m := &metricsWriter{w: w}

	m.header("spgemm_run_latency_seconds",
		"End-to-end multiply latency (quantiles over the rolling window).", "summary")
	m.summary("spgemm_run_latency_seconds", "", t.RunWindow(), t.RunCumulative())

	m.header("spgemm_phase_latency_seconds",
		"Per-phase span latency (quantiles over the rolling window).", "summary")
	for p := obs.Phase(0); int(p) < obs.PhaseCount; p++ {
		labels := fmt.Sprintf("phase=%q", p.String())
		m.summary("spgemm_phase_latency_seconds", labels, t.PhaseWindow(p), t.PhaseCumulative(p))
	}

	stats := t.aggregateStats()
	m.header("spgemm_runs_total", "Completed kernel runs.", "counter")
	m.printf("spgemm_runs_total %d\n", stats.Runs)

	counter := func(name, help string, v int64) {
		m.header(name, help, "counter")
		m.printf("%s %d\n", name, v)
	}
	counter("spgemm_tiles_total", "Tiles executed.", stats.Totals.Tiles)
	counter("spgemm_rows_total", "Output rows iterated.", stats.Totals.Rows)
	counter("spgemm_flops_total", "Estimated flop volume processed.", stats.Totals.Flops)
	counter("spgemm_gathered_total", "Output entries emitted.", stats.Totals.Gathered)
	counter("spgemm_accum_marker_clears_total", "Accumulator marker-overflow resets.", stats.Accum.MarkerClears)
	counter("spgemm_accum_table_grows_total", "Accumulator hash-table growths.", stats.Accum.TableGrows)
	counter("spgemm_accum_hash_probes_total", "Accumulator hash probes.", stats.Accum.HashProbes)
	counter("spgemm_accum_hash_collisions_total", "Accumulator hash collisions.", stats.Accum.HashCollisions)
	counter("spgemm_accum_spilled_rows_total", "Rows a dense window spilled to its hash table.", stats.Accum.SpilledRows)
	counter("spgemm_retry_attempts_total", "Retry-ladder execution attempts.", stats.Retry.Attempts)
	counter("spgemm_retry_retries_total", "Attempts after the first.", stats.Retry.Retries)
	counter("spgemm_retry_degradations_total", "Attempts on a narrowed execution path.", stats.Retry.Degradations)
	counter("spgemm_retry_failures_total", "Operations whose final attempt failed.", stats.Retry.Failures)
	counter("spgemm_retry_stalls_total", "Attempts failed by the stall watchdog.", stats.Retry.Stalls)
	counter("spgemm_wave_runs_total", "Wave-scheduled (level-set) runs.", stats.Sched.WaveRuns)
	counter("spgemm_wave_levels_total", "Raw dependency levels of triangular solves, serial ones included.", stats.Sched.Levels)
	counter("spgemm_waves_total", "Coarsened waves executed.", stats.Sched.Waves)
	counter("spgemm_serial_waves_total", "Executed single-tile (serial) waves.", stats.Sched.SerialWaves)
	counter("spgemm_wave_barriers_total", "Barrier arrivals (one per worker per crossed wave boundary).", stats.Sched.Barriers)

	m.header("spgemm_wave_barrier_wait_seconds_total",
		"Cumulative time workers spent parked at wave barriers.", "counter")
	m.printf("spgemm_wave_barrier_wait_seconds_total %s\n", formatSeconds(stats.Sched.BarrierWaitNs))

	pool, idle := t.gatherPool(stats)
	counter("spgemm_pool_hits_total", "Workspace checkouts served from the pool.", pool.Hits)
	counter("spgemm_pool_misses_total", "Workspace checkouts that constructed fresh state.", pool.Misses)
	counter("spgemm_pool_steals_total", "Checkouts served by a larger size-class bucket.", pool.Steals)
	counter("spgemm_pool_resizes_total", "In-place workspace growths.", pool.Resizes)
	counter("spgemm_pool_evictions_total", "Hot-tier to overflow-tier demotions.", pool.Evictions)
	counter("spgemm_pool_quarantined_total", "Workspaces quarantined after a poisoned run.", pool.Quarantined)
	counter("spgemm_plan_cache_hits_total", "Plan-cache hits.", pool.PlanHits)
	counter("spgemm_plan_cache_misses_total", "Plan-cache misses.", pool.PlanMisses)

	hitRate := exec.PoolStats{Hits: pool.Hits, Misses: pool.Misses, Steals: pool.Steals}.HitRate()
	m.header("spgemm_pool_hit_rate", "Fraction of workspace checkouts served without construction.", "gauge")
	m.printf("spgemm_pool_hit_rate %s\n", strconv.FormatFloat(hitRate, 'g', -1, 64))
	m.header("spgemm_pool_idle", "Workspaces currently idle in the hot tier.", "gauge")
	m.printf("spgemm_pool_idle %d\n", idle)

	counter("spgemm_flightrec_events_total", "Events appended to the flight recorder.", t.flight.Seq())
	counter("spgemm_flightrec_dropped_total", "Flight events overwritten before a dump.", t.flight.Dropped())
	counter("spgemm_flightrec_dumps_total", "Failure dumps written.", t.dumps.Load())

	return m.err
}

// gatherPool chooses the pool-counter source: live engine counters
// (summed over attached engines) when any engine is attached, else the
// recorder's folded per-run deltas.
func (t *Telemetry) gatherPool(stats obs.Stats) (obs.PoolCounters, int) {
	engines := t.attachedEngines()
	if len(engines) == 0 {
		return stats.Pool, 0
	}
	var live obs.Stats
	var idle int
	for _, e := range engines {
		live.Add(obs.Stats{Pool: e.Stats().Counters()})
		idle += e.Idle()
	}
	return live.Pool, idle
}

// Sample is one parsed exposition sample.
type Sample struct {
	// Name is the metric name (without the label set).
	Name string
	// Labels is the raw label block without braces ("" when absent),
	// with label pairs in source order.
	Labels string
	// Value is the sample value.
	Value float64
}

// ParseExposition parses Prometheus text format 0.0.4 far enough for
// the smoke gate: comment/HELP/TYPE lines are skipped, every sample
// line must split into name[{labels}] and a float value. Returns the
// samples in source order; malformed lines are errors, not skips, so
// format drift fails loudly.
func ParseExposition(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name, labels, rest string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("telemetry: exposition line %d: unbalanced braces", lineNo)
			}
			name, labels, rest = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
		} else {
			fields := strings.Fields(line)
			// name value [timestamp]
			if len(fields) != 2 && len(fields) != 3 {
				return nil, fmt.Errorf("telemetry: exposition line %d: want 'name value [timestamp]', got %q", lineNo, line)
			}
			name, rest = fields[0], fields[1]
		}
		if name == "" {
			return nil, fmt.Errorf("telemetry: exposition line %d: empty metric name", lineNo)
		}
		// rest may carry an optional timestamp; take the first field.
		valueField := strings.Fields(rest)
		if len(valueField) == 0 {
			return nil, fmt.Errorf("telemetry: exposition line %d: missing value", lineNo)
		}
		v, err := strconv.ParseFloat(valueField[0], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: exposition line %d: bad value %q: %w", lineNo, valueField[0], err)
		}
		out = append(out, Sample{Name: name, Labels: labels, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// FindSample returns the first sample matching name and containing
// every given label pair (rendered as key="value").
func FindSample(samples []Sample, name string, labelPairs ...string) (Sample, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for _, lp := range labelPairs {
			if !strings.Contains(s.Labels, lp) {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return Sample{}, false
}

// MissingSeries reports which required families have no sample (base
// name or any _sum/_count derivative) in the parse.
func MissingSeries(samples []Sample, required []string) []string {
	have := make(map[string]bool, len(samples))
	for _, s := range samples {
		have[s.Name] = true
		have[strings.TrimSuffix(strings.TrimSuffix(s.Name, "_sum"), "_count")] = true
	}
	var missing []string
	for _, name := range required {
		if !have[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}
