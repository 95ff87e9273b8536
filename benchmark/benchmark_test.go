package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"maskedspgemm/spgemm"
)

func smallConfig() runConfig {
	return runConfig{shift: 4, seed: 1, seconds: refSeconds, passes: 2, probeCalls: 20}
}

// smallRuns runs every workload once at the small scale, both halves,
// and shares the results between the tests below.
var smallRuns = sync.OnceValues(func() (map[string]*runResult, error) {
	out := map[string]*runResult{}
	for _, w := range workloads {
		smallTraces[w.name] = newTracer()
		res, err := runWorkload(w, smallConfig(), smallTraces[w.name])
		if err != nil {
			return nil, err
		}
		out[w.name] = res
	}
	return out, nil
})

// smallTraces holds the spans of smallRuns, by workload.
var smallTraces = map[string]*tracer{}

func mustSmallRuns(t *testing.T) map[string]*runResult {
	t.Helper()
	runs, err := smallRuns()
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestEveryMetricIsReported(t *testing.T) {
	runs := mustSmallRuns(t)
	for _, w := range workloads {
		res := runs[w.name]
		if res.opsFailed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, res.opsFailed, res.opsTotal, res.failures)
		}
		// 3 cold + 1 warm-up + 2 timed + 1 traced + 1 at Workers=1.
		if want := 8 * w.casesPerPass(); res.opsTotal != want {
			t.Errorf("%s: ops_total %d, want %d", w.name, res.opsTotal, want)
		}
		check := func(kind string, defs []metricDef, vals map[string]float64, nonZero bool) {
			if len(vals) != len(defs) {
				t.Errorf("%s: %d %s metrics reported, %d defined", w.name, len(vals), kind, len(defs))
			}
			for _, d := range defs {
				v, ok := vals[d.name]
				switch {
				case !metricName.MatchString(d.name):
					t.Errorf("%s: %s is not a valid metric name", w.name, d.name)
				case !ok:
					t.Errorf("%s: %s metric %s is missing", w.name, kind, d.name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s: %s is %v", w.name, d.name, v)
				case nonZero && v <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.name, v)
				}
			}
		}
		check("end-to-end", endToEnd, res.endToEnd, true)
		check("per-layer", perLayer, res.perLayer, false)
	}
}

func TestLayerPredictionsThatAreExact(t *testing.T) {
	runs := mustSmallRuns(t)
	for _, name := range []string{"tc-skew", "tc-band"} {
		if got := runs[name].perLayer["exec.plan_hit_ratio"]; got != 1 {
			t.Errorf("%s: warm triangle counting must only hit the plan cache, hit ratio %v", name, got)
		}
	}
	if got := runs["ktruss-churn"].perLayer["exec.plan_hit_ratio"]; got != 0 {
		t.Errorf("ktruss-churn multiplies a new matrix every round and can only miss, hit ratio %v", got)
	}
	if got := runs["trsv-iter"].perLayer["core.solve_ns_per_nnz"]; got <= 0 {
		t.Errorf("trsv-iter recorded no exec.solve phase: %v", got)
	}
	for _, g := range corpus {
		if got := runs["trsv-iter"].perLayer[corpusMetric(g.name)]; got <= 0 {
			t.Errorf("trsv-iter runs every corpus graph, but %s is %v", corpusMetric(g.name), got)
		}
	}
}

func TestSameSeedSameOperands(t *testing.T) {
	fingerprint := func(g graphSpec, seed uint64) uint64 {
		var pt prepTimes
		m, err := buildGraph(g, 4, seed, &pt)
		if err != nil {
			t.Fatal(err)
		}
		return hashMatrix(m)
	}
	for _, g := range append([]graphSpec{bcRoad}, corpus...) {
		if fingerprint(g, 1) != fingerprint(g, 1) {
			t.Errorf("%s: seed 1 generated different operands twice", g.name)
		}
		if fingerprint(g, 1) == fingerprint(g, 2) {
			t.Errorf("%s: seeds 1 and 2 generated the same operands", g.name)
		}
	}
}

func TestSameSeedSameCounts(t *testing.T) {
	runs := mustSmallRuns(t)
	// tc-skew is left out to keep the suite short: it runs the same op as
	// tc-band.
	for _, name := range []string{"tc-band", "ktruss-churn", "bc-road", "trsv-iter"} {
		w, _ := findWorkload(name)
		cfg := smallConfig()
		cfg.probeCalls = 1
		again, err := runWorkload(w, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		first := runs[w.name]
		if a, b := first.perLayer["core.flops_per_pass"], again.perLayer["core.flops_per_pass"]; a != b {
			t.Errorf("%s: core.flops_per_pass %v then %v on the same seed", w.name, a, b)
		}
		// Allocation counts repeat up to a handful of objects per pass that
		// depend on when the collector empties the engine's pools; over the
		// two short passes of the small scale that is up to ~1 %.
		a, b := first.endToEnd["allocs_per_pass"], again.endToEnd["allocs_per_pass"]
		if math.Abs(a-b) > 0.02*a+2 {
			t.Errorf("%s: allocs_per_pass %v then %v on the same seed", w.name, a, b)
		}
	}
}

func TestCorruptedResultCountsAsFailedOp(t *testing.T) {
	for _, w := range workloads {
		prep, err := w.prepare(4, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{w: w, prep: prep, res: &runResult{}}
		r.cfg.corrupt = func(pass, caseIdx int) bool { return pass == 1 && caseIdx == 0 }
		opts := spgemm.Defaults()
		if p := r.pass(opts, false, nil); !p.clean || r.res.opsFailed != 0 {
			t.Fatalf("%s: untouched pass failed: %v", w.name, r.res.failures)
		}
		p := r.pass(opts, false, nil)
		if r.res.opsFailed != 1 || r.res.opsTotal != 2*w.casesPerPass() {
			t.Errorf("%s: one corrupted result, ops_failed %d of %d (%v)", w.name, r.res.opsFailed, r.res.opsTotal, r.res.failures)
		}
		if p.clean || !p.ops[0].failed {
			t.Errorf("%s: the pass with the corrupted op still counts as a clean timing sample", w.name)
		}
	}
}

func TestReportRoundTrips(t *testing.T) {
	runs := mustSmallRuns(t)
	report := Report{Schema: reportSchema, Env: currentEnv()}
	for _, w := range workloads {
		report.Workloads = append(report.Workloads, fold([]*runResult{runs[w.name]}))
	}
	path := filepath.Join(t.TempDir(), "out", "report.json")
	if err := writeJSON(path, report); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&report, back) {
		t.Error("report changed on its way through JSON")
	}
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, bytes.Replace(data, []byte(`"schema"`), []byte(`"shema"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(path); err == nil {
		t.Error("a report with an unknown field was accepted")
	}
}

func TestTraceFileHoldsSpansOfEveryLayer(t *testing.T) {
	mustSmallRuns(t)
	w, _ := findWorkload("tc-band")
	tr := smallTraces[w.name]
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path, w.name, 1); err != nil {
		t.Fatal(err)
	}
	var f traceFile
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	ops := 0
	for _, s := range f.Spans {
		if s.EndNs < s.StartNs {
			t.Fatalf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %d %q has parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Layer == "graph" {
			ops++
		}
	}
	if ops != w.casesPerPass() {
		t.Errorf("%d facade-call spans, want one per traced op = %d", ops, w.casesPerPass())
	}
	for _, layer := range []string{"graph", "core", "tiling", "sched", "exec", "accum", "sparse", "model", "obs", "telemetry", "spgemm"} {
		if _, ok := f.SelfMs[layer]; !ok {
			t.Errorf("no span of layer %s in the trace", layer)
		}
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json is out of date: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
}

func TestReadmeNamesEveryWorkloadAndMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.name+"`") {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+d.name+"`") && !strings.HasPrefix(d.name, "op_ms.") {
			t.Errorf("README.md does not describe metric %s", d.name)
		}
	}
}

func TestPassCountsKeepTheFloor(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []float64{1, 8, refSeconds, 60} {
			if ops := w.timedPasses(seconds) * w.casesPerPass(); ops < minTimedOps {
				t.Errorf("%s at -seconds %v: %d timed ops, floor is %d", w.name, seconds, ops, minTimedOps)
			}
		}
		if got := w.timedPasses(refSeconds); got != w.passes {
			t.Errorf("%s: %d passes at the reference length, table says %d", w.name, got, w.passes)
		}
	}
}

func TestSpreadIsTheDriversQuartileSpread(t *testing.T) {
	// Expected values are (q3 - q1) / median with the quartiles of
	// Python's statistics.quantiles(x, n=4).
	cases := []struct {
		x    []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 0},
		{[]float64{1, 2, 3, 4}, 1},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1},
		{[]float64{10, 11, 12, 13, 14}, 0.25},
	}
	for _, c := range cases {
		if got := spread(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "pass_ms_p50", better: "lower", bound: 0.10}
	higher := metricDef{name: "medges_per_s", better: "higher", bound: 0.10}
	val := func(spread float64, runs ...float64) Value {
		return Value{Value: median(runs), Spread: spread, Runs: runs}
	}
	cases := []struct {
		name     string
		d        metricDef
		old, cur Value
		want     verdict
	}{
		{"small move", lower, val(0.01, 100), val(0.01, 105), within},
		{"slower", lower, val(0.01, 100), val(0.01, 111), worse},
		{"faster", lower, val(0.01, 100), val(0.01, 89), better},
		{"less throughput", higher, val(0.01, 100), val(0.01, 89), worse},
		{"more throughput", higher, val(0.01, 100), val(0.01, 111), better},
		{"noisy and overlapping", lower, val(0.2, 90, 100, 110, 120), val(0.2, 100, 110, 120, 130), unresolved},
		{"noisy but disjoint, slower", lower, val(0.2, 90, 100, 110, 120), val(0.2, 130, 140, 150, 160), worse},
		{"noisy but disjoint, faster", lower, val(0.2, 90, 100, 110, 120), val(0.2, 50, 60, 70, 80), better},
	}
	for _, c := range cases {
		if got := judge(c.d, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	runs := mustSmallRuns(t)
	dir := t.TempDir()
	write := func(name string, edit func(*Report)) string {
		r := Report{Schema: reportSchema, Env: currentEnv()}
		r.Env.Seed, r.Env.Repeat = 1, 1
		for _, w := range workloads {
			r.Workloads = append(r.Workloads, fold([]*runResult{runs[w.name]}))
		}
		if edit != nil {
			edit(&r)
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scale := func(r *Report, workload, metric string, f float64) {
		v := r.workload(workload).EndToEnd[metric]
		v.Value *= f
		r.workload(workload).EndToEnd[metric] = v
	}
	base := write("base.json", nil)
	cases := []struct {
		name string
		edit func(*Report)
		code int
		say  string
	}{
		{"same.json", nil, 0, "no regression"},
		{"slow.json", func(r *Report) { scale(r, "bc-road", "pass_ms_p50", 1.5) }, 1, "worse"},
		{"fast.json", func(r *Report) { scale(r, "bc-road", "pass_ms_p50", 0.5) }, 0, "better"},
		{"failed.json", func(r *Report) { r.workload("tc-skew").OpsFailed = 1 }, 1, "FAILED OPS ROSE"},
		{"procs.json", func(r *Report) { r.Env.GOMAXPROCS++ }, 2, "GOMAXPROCS"},
		{"seed.json", func(r *Report) { r.Env.Seed = 7 }, 2, "seed"},
		{"passes.json", func(r *Report) { r.workload("tc-band").Passes.Timed++ }, 2, "pass counts"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", base, write(c.name, c.edit)}, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String()+stderr.String(), c.say) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s%s", c.name, code, c.code, c.say, stdout.String(), stderr.String())
		}
	}
}

func TestDriverProtocol(t *testing.T) {
	dir := t.TempDir()
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "bc-road", "--seed", "3", "--seconds", "1", "--trace", trace,
			"-scale", "small", "-out", filepath.Join(dir, "r.json"), "-trace-out", dir}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("--trace %s: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 {
			t.Errorf("--trace %s: last line has keys %v, want exactly correct, attempted, failed, metrics", trace, line)
		}
		var parsed driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
			t.Fatal(err)
		}
		if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 {
			t.Errorf("--trace %s: %+v", trace, parsed)
		}
		if len(parsed.Metrics) != len(defs) {
			t.Errorf("--trace %s: %d metrics on the last line, want %d", trace, len(parsed.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := parsed.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("--trace %s: metric %s is %+v, want unit %s", trace, d.name, m, d.unit)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
