package main

import (
	"runtime"
	"time"

	"maskedspgemm/spgemm"
)

// Span is one interval of the traced run: a facade call, a probe call,
// or one of the benchmark's own stages. Spans are kept in memory and
// written out when the workload ends. Op ties together the spans of one
// op. A span with Agg > 0 is not a measured interval but the total of
// Agg recorder spans of one stats/v1 phase inside its parent op, laid
// out back to back from the parent's start so that "self time = span
// minus children" works the same way at every level.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op,omitempty"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Agg     int64  `json:"agg,omitempty"`
}

// tracer collects spans. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	spans  []Span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(s Span) int {
	if t == nil {
		return 0
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) at(tm time.Time) int64 {
	if t == nil {
		return 0
	}
	return tm.Sub(t.origin).Nanoseconds()
}

// begin opens a span now; end closes it.
func (t *tracer) begin(name, layer string, parent, op int) int {
	return t.add(Span{Parent: parent, Op: op, Name: name, Layer: layer, StartNs: t.at(time.Now())})
}

func (t *tracer) end(id int) {
	if t != nil && id > 0 {
		t.spans[id-1].EndNs = t.at(time.Now())
	}
}

// selfTimes sums, per layer, every span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Layer] += float64(s.EndNs-s.StartNs-children[s.ID]) / 1e6
	}
	return self
}

// traceFile is the document written to -trace-out.
type traceFile struct {
	Schema   string             `json:"schema"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms_by_layer"`
	Spans    []Span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	return writeJSON(path, traceFile{
		Schema:   "maskedspgemm/benchmark-trace/v1",
		Workload: workload,
		Seed:     seed,
		SelfMs:   t.selfTimes(),
		Spans:    t.spans,
	})
}

// phaseLayer maps a stats/v1 phase to the package whose code it times.
func phaseLayer(phase string) string {
	switch phase {
	case "plan.row_work", "plan.prefix_sum", "plan.tile_build", "plan.row_cap":
		return "tiling"
	default:
		return "core"
	}
}

// tracedRun is the second half of a workload run: a few passes at
// Workers=1, then a quarter of the timed passes again with a
// StatsRecorder attached and a span around every facade call. The
// recorder is reset before and read after every op, outside the op's
// span, so each op's phases, counters and glue (span minus phases) are
// its own.
func (r *runner) tracedRun(opts spgemm.Options, timed []passSample, root int, l map[string]float64) {
	base := median(cleanPassMs(timed))

	// The single-thread baseline first, while the engine is still in the
	// state the timed passes left it in: same cases, Workers = 1.
	one := opts
	one.Workers = 1
	k := max(1, r.fullPasses/8)
	r.res.passes.OneWorker = k
	span := r.tr.begin("one-worker", "benchmark", root, 0)
	single := make([]passSample, k)
	for i := range single {
		single[i] = r.pass(one, false, nil)
	}
	r.tr.end(span)
	l["sched.speedup_vs_1w"] = ratio(median(cleanPassMs(single)), base)

	rec := spgemm.NewStatsRecorder()
	traced := opts
	traced.Stats = rec
	n := max(1, r.fullPasses/4)
	r.res.passes.Traced = n

	var (
		phaseMs              = map[string]float64{}
		wallNs               float64
		totals               spgemm.CounterSet
		workerFlops          []int64
		accum                spgemm.AccumCounters
		barrierWaitNs, edges float64
		opID                 int
	)
	span = r.tr.begin("traced", "benchmark", root, 0)
	hooks := &opHooks{
		before: rec.Reset,
		after: func(s opSample) {
			opID++
			st := rec.Stats()
			c := r.prep.cases[s.caseIdx]
			start := r.tr.at(s.start)
			id := r.tr.add(Span{Parent: span, Op: opID, Name: r.w.name + ":" + c.label(),
				Layer: "graph", StartNs: start, EndNs: start + s.dur.Nanoseconds()})
			at := start
			for _, p := range st.Phases {
				d := int64(p.Millis * 1e6)
				r.tr.add(Span{Parent: id, Op: opID, Name: p.Phase, Layer: phaseLayer(p.Phase),
					StartNs: at, EndNs: at + d, Agg: p.Count})
				at += d
				phaseMs[p.Phase] += p.Millis
			}
			wallNs += float64(s.dur.Nanoseconds())
			edges += float64(c.op.edges())
			t := st.Totals
			totals.Flops += t.Flops
			totals.Gathered += t.Gathered
			totals.CoIterPicks += t.CoIterPicks
			totals.LinearPicks += t.LinearPicks
			for _, w := range st.Workers {
				for len(workerFlops) <= w.Worker {
					workerFlops = append(workerFlops, 0)
				}
				workerFlops[w.Worker] += w.Flops
			}
			accum.MarkerClears += st.Accum.MarkerClears
			accum.HashProbes += st.Accum.HashProbes
			accum.HashCollisions += st.Accum.HashCollisions
			barrierWaitNs += float64(st.Sched.BarrierWaitNs)
		},
	}
	pool0 := r.eng.Stats()
	passes := make([]passSample, n)
	for i := range passes {
		passes[i] = r.pass(traced, false, hooks)
	}
	pool := r.eng.Stats().Sub(pool0)
	r.tr.end(span)

	plan := phaseMs["plan.row_work"] + phaseMs["plan.prefix_sum"] + phaseMs["plan.tile_build"] + phaseMs["plan.row_cap"]
	var recorded float64
	for _, v := range phaseMs {
		recorded += v
	}
	wallMs := wallNs / 1e6
	fn := float64(n)
	l["tiling.plan_share"] = ratio(plan, wallMs)
	l["core.kernel_share"] = ratio(phaseMs["exec.kernel"], wallMs)
	l["core.kernel_ns_per_flop"] = ratio(phaseMs["exec.kernel"]*1e6, float64(totals.Flops))
	l["core.assemble_share"] = ratio(phaseMs["exec.assemble"], wallMs)
	l["core.assemble_ns_per_nnz"] = ratio(phaseMs["exec.assemble"]*1e6, float64(totals.Gathered))
	l["core.coiter_ratio"] = ratio(float64(totals.CoIterPicks), float64(totals.CoIterPicks+totals.LinearPicks))
	l["core.flops_per_pass"] = float64(totals.Flops) / fn
	if solve := phaseMs["exec.solve"]; solve > 0 {
		// Only trsv-iter solves, and its ops are credited nnz(L) × solves.
		l["core.solve_ns_per_nnz"] = ratio(solve*1e6, edges)
	}
	l["core.levels_plan_ms"] = phaseMs["plan.levels"] / fn
	l["graph.glue_share"] = ratio(wallMs-recorded, wallMs)
	l["sched.barrier_wait_share"] = ratio(barrierWaitNs, float64(runtime.GOMAXPROCS(0))*wallNs)
	l["sched.flop_imbalance"] = imbalance(workerFlops)
	l["accum.probes_per_update"] = ratio(float64(accum.HashProbes+accum.HashCollisions), float64(accum.HashProbes))
	l["accum.marker_clears"] = float64(accum.MarkerClears) / fn
	l["exec.pool_hit_ratio"] = ratio(float64(pool.Hits+pool.Steals), float64(pool.Lookups()))
	l["exec.plan_hit_ratio"] = ratio(float64(pool.PlanHits), float64(pool.PlanHits+pool.PlanMisses))
	l["exec.resizes"] = float64(pool.Resizes) / fn
	l["exec.evictions"] = float64(pool.Evictions) / fn
	l["obs.trace_overhead_pct"] = 100 * (ratio(median(cleanPassMs(passes)), base) - 1)
}

// imbalance is max / mean of a per-worker quantity; 1 is perfect
// balance, and so is "no work recorded".
func imbalance(perWorker []int64) float64 {
	var total, most int64
	for _, v := range perWorker {
		total += v
		most = max(most, v)
	}
	if total == 0 {
		return 1
	}
	return float64(most) * float64(len(perWorker)) / float64(total)
}
