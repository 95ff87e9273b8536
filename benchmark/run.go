package main

import (
	"fmt"
	"runtime"
	"time"

	"maskedspgemm/spgemm"
)

// Every workload runs, in one process and in this order:
//
//	set-up ×3 (each ending in one cold pass on a fresh Engine)
//	→ 1 warm-up pass → N timed passes (tracing off, one shared Engine)
//	→ traced run (N/8 passes at Workers=1, N/4 passes with a
//	  StatsRecorder and spans, then the isolated layer probes)
//
// End-to-end metrics come from the set-ups and the timed passes only;
// the traced run feeds the per-layer ledger. The loop is closed — one
// caller, the next op starts when the previous one has returned — and
// every op goes through the public facade with Options.Workers = 0.

const (
	setupReps       = 3
	maxFailuresKept = 8
)

// runMode selects which halves of a workload run are wanted. The driver
// asks for one at a time (-trace 0 or 1); with no -trace both run.
type runMode int

const (
	modeBoth runMode = iota
	modeEndToEnd
	modeLayers
)

type runConfig struct {
	shift   int
	seed    uint64
	seconds float64
	mode    runMode
	// passes, when positive, overrides the timed pass count (-scale
	// small runs 2).
	passes int
	// probeCalls is the number of timed calls per isolated probe.
	probeCalls int
	// corrupt, when non-nil, is asked before each verification whether
	// to damage that op's result first; only the test suite sets it.
	corrupt func(pass, caseIdx int) bool
}

// runResult is one run of one workload.
type runResult struct {
	name      string
	passes    PassCounts
	opsTotal  int
	opsFailed int
	failures  []string
	samples   map[string]int
	endToEnd  map[string]float64
	perLayer  map[string]float64
}

// opSample is one executed op.
type opSample struct {
	caseIdx int
	start   time.Time
	dur     time.Duration
	failed  bool
}

// passSample is one executed pass. wall is the sum of its op times —
// verification and bookkeeping between ops are outside it.
type passSample struct {
	ops     []opSample
	wall    time.Duration
	clean   bool
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

type runner struct {
	w    workload
	cfg  runConfig
	res  *runResult
	prep *prepared
	eng  *spgemm.Engine
	tr   *tracer
	// fullPasses is the timed pass count of a complete run; the traced
	// run takes its quarter and its eighth from it.
	fullPasses int
	// passNo counts executed passes, for the corrupt hook.
	passNo int
}

func (r *runner) fail(c caseInfo, err error) {
	r.res.opsFailed++
	if len(r.res.failures) < maxFailuresKept {
		r.res.failures = append(r.res.failures, fmt.Sprintf("%s %s: %v", r.w.name, c.label(), err))
	}
}

// opHooks lets the traced passes observe each op without the timed
// passes paying for it.
type opHooks struct {
	before func()
	after  func(s opSample)
}

// pass runs one op per case in fixed order, timing each facade call on
// its own, and verifies the results after the pass's allocation counters
// have been read — so neither the timings nor the counts include the
// benchmark's own checking.
func (r *runner) pass(opts spgemm.Options, full bool, hooks *opHooks) passSample {
	p := passSample{ops: make([]opSample, 0, len(r.prep.cases)), clean: true}
	errs := make([]error, len(r.prep.cases))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, c := range r.prep.cases {
		if hooks != nil {
			hooks.before()
		}
		start := time.Now()
		errs[i] = c.op.run(opts)
		s := opSample{caseIdx: i, start: start, dur: time.Since(start)}
		if hooks != nil {
			hooks.after(s)
		}
		p.ops = append(p.ops, s)
	}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	p.gcs = after.NumGC - before.NumGC
	p.pauseNs = after.PauseTotalNs - before.PauseTotalNs
	for i, c := range r.prep.cases {
		r.res.opsTotal++
		err := errs[i]
		if err == nil {
			if r.cfg.corrupt != nil && r.cfg.corrupt(r.passNo, i) {
				c.op.corrupt()
			}
			if fv, ok := c.op.(fullVerifier); ok && full {
				err = fv.verifyFull()
			} else {
				err = c.op.verify()
			}
		}
		if err != nil {
			r.fail(c, err)
			p.ops[i].failed = true
			p.clean = false
			continue
		}
		p.wall += p.ops[i].dur
	}
	r.passNo++
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runWorkload executes one complete run of w and returns its metrics.
func runWorkload(w workload, cfg runConfig, tr *tracer) (*runResult, error) {
	r := &runner{w: w, cfg: cfg, tr: tr, res: &runResult{
		name:     w.name,
		samples:  map[string]int{},
		endToEnd: map[string]float64{},
		perLayer: map[string]float64{},
	}}
	root := tr.begin("workload:"+w.name, "benchmark", 0, 0)
	defer tr.end(root)

	// Set-up, three times over: each repetition does everything a first
	// call pays for and ends in one cold pass, which gives three cold
	// samples and three set-up samples for the price of two extra
	// generations. The last repetition's operands and engine are kept.
	opts := spgemm.Defaults()
	var setupS, coldMs, buildMs, prepMs []float64
	setupSpan := tr.begin("setup", "benchmark", root, 0)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		prep, err := w.prepare(cfg.shift, cfg.seed)
		if err != nil {
			return nil, err
		}
		r.prep = prep
		r.eng = spgemm.NewEngine(spgemm.EngineConfig{})
		opts.Engine = r.eng
		runtime.GC()
		cold := r.pass(opts, true, nil)
		setupS = append(setupS, time.Since(t0).Seconds())
		if cold.clean {
			coldMs = append(coldMs, ms(cold.wall))
		}
		buildMs = append(buildMs, ms(prep.times.build))
		prepMs = append(prepMs, ms(prep.times.prep))
	}
	t0 := time.Now()
	r.pass(opts, false, nil)
	warmUp := time.Since(t0).Seconds()
	tr.end(setupSpan)
	r.res.passes = PassCounts{Cold: setupReps, WarmUp: 1, OpsPerPass: len(r.prep.cases)}

	// Timed passes. The layers-only mode still needs an untraced baseline
	// (per-graph op times, tracing overhead) but not the full count.
	n := w.timedPasses(cfg.seconds)
	if cfg.passes > 0 {
		n = cfg.passes
	}
	r.fullPasses = n
	if cfg.mode == modeLayers {
		n = (n + 1) / 2
	}
	r.res.passes.Timed = n
	timedSpan := tr.begin("timed", "benchmark", root, 0)
	timed := make([]passSample, n)
	for i := range timed {
		timed[i] = r.pass(opts, false, nil)
	}
	tr.end(timedSpan)
	runtime.GC()
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)

	if cfg.mode != modeLayers {
		e := r.res.endToEnd
		e["setup_s"] = median(setupS) + warmUp
		e["cold_pass_ms"] = median(coldMs)
		e["retained_mb"] = float64(heap.HeapAlloc) / 1e6
		r.timedMetrics(timed, e)
	}
	if cfg.mode != modeEndToEnd {
		l := r.res.perLayer
		for _, d := range perLayer {
			l[d.name] = 0
		}
		l["graphgen.build_ms"] = median(buildMs)
		l["sparse.prep_ms"] = median(prepMs)
		r.baselineMetrics(timed, l)
		r.tracedRun(opts, timed, root, l)
		if err := runProbes(r.prep.first, cfg.probeCalls, tr, root, l); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
	}
	runtime.KeepAlive(r.eng)
	runtime.KeepAlive(r.prep)
	return r.res, nil
}

// timedMetrics derives the end-to-end metrics of the timed passes.
func (r *runner) timedMetrics(timed []passSample, e map[string]float64) {
	passMs := cleanPassMs(timed)
	var mallocs, bytes uint64
	perCase := make([][]float64, len(r.prep.cases))
	var edges, opSeconds float64
	for _, p := range timed {
		mallocs += p.mallocs
		bytes += p.bytes
		for _, s := range p.ops {
			if s.failed {
				continue
			}
			perCase[s.caseIdx] = append(perCase[s.caseIdx], ms(s.dur))
			edges += float64(r.prep.cases[s.caseIdx].op.edges())
			opSeconds += s.dur.Seconds()
		}
	}
	var rel []float64
	for _, samples := range perCase {
		m := median(samples)
		for _, v := range samples {
			rel = append(rel, ratio(v, m))
		}
	}
	e["pass_ms_p50"] = median(passMs)
	e["op_rel_p90"] = quantile(rel, 0.9)
	e["medges_per_s"] = ratio(edges, opSeconds) * 1e-6
	e["allocs_per_pass"] = float64(mallocs) / float64(len(timed))
	e["alloc_mb_per_pass"] = float64(bytes) / float64(len(timed)) / 1e6
	r.res.samples["pass_ms_p50"] = len(passMs)
	r.res.samples["op_rel_p90"] = len(rel)
}

// baselineMetrics derives the per-layer entries that are read off the
// untraced timed passes: the per-graph trajectory rows and the
// collector's share.
func (r *runner) baselineMetrics(timed []passSample, l map[string]float64) {
	perGraph := map[string][]float64{}
	var gcs, pauseNs float64
	for _, p := range timed {
		gcs += float64(p.gcs)
		pauseNs += float64(p.pauseNs)
		for _, s := range p.ops {
			if !s.failed {
				g := r.prep.cases[s.caseIdx].graph
				perGraph[g] = append(perGraph[g], ms(s.dur))
			}
		}
	}
	for g, samples := range perGraph {
		l[corpusMetric(g)] = median(samples)
	}
	l["go.gc_cycles_per_pass"] = gcs / float64(len(timed))
	l["go.gc_pause_ms_per_pass"] = pauseNs / 1e6 / float64(len(timed))
}

// cleanPassMs returns the wall times of the passes without a failed op.
func cleanPassMs(passes []passSample) []float64 {
	var out []float64
	for _, p := range passes {
		if p.clean {
			out = append(out, ms(p.wall))
		}
	}
	return out
}
