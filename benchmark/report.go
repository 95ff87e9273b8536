package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// reportSchema identifies the JSON layout of a Report.
const reportSchema = "maskedspgemm/benchmark/v1"

// Env is where and how a report was measured. -compare refuses to set
// two reports side by side when GOMAXPROCS, seed or pass counts differ.
type Env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Repeat     int     `json:"repeat"`
}

// PassCounts are the fixed pass counts of one workload run.
type PassCounts struct {
	Cold      int `json:"cold"`
	WarmUp    int `json:"warm_up"`
	Timed     int `json:"timed"`
	Traced    int `json:"traced"`
	OneWorker int `json:"one_worker"`
	// OpsPerPass is the number of (graph, variant) cases.
	OpsPerPass int `json:"ops_per_pass"`
}

// Value is one metric of a report: the median over the report's runs,
// every run's own reading, and their spread (0 below four runs).
type Value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Spread float64   `json:"spread"`
	Runs   []float64 `json:"runs"`
}

// WorkloadReport is one workload of a report.
type WorkloadReport struct {
	Name      string     `json:"name"`
	Passes    PassCounts `json:"passes"`
	OpsTotal  int        `json:"ops_total"`
	OpsFailed int        `json:"ops_failed"`
	// Failures holds the first few verification or call errors.
	Failures []string `json:"failures"`
	// Samples are the sample counts behind the quantile metrics.
	Samples  map[string]int   `json:"samples"`
	EndToEnd map[string]Value `json:"end_to_end"`
	PerLayer map[string]Value `json:"per_layer"`
}

// Report is the document `go run ./benchmark` writes.
type Report struct {
	Schema    string           `json:"schema"`
	Env       Env              `json:"env"`
	Workloads []WorkloadReport `json:"workloads"`
}

func (r *Report) workload(name string) *WorkloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// currentEnv records the host. The git commit and CPU model are best
// effort: a checkout without .git or a host without /proc still runs.
func currentEnv() Env {
	e := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		CPUModel:   "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// fold merges the runs of one workload into its report entry: counts
// add up, every metric keeps each run's reading and reports the median.
func fold(runs []*runResult) WorkloadReport {
	w := WorkloadReport{
		Name:     runs[0].name,
		Passes:   runs[0].passes,
		Failures: []string{},
		Samples:  runs[0].samples,
		EndToEnd: map[string]Value{},
		PerLayer: map[string]Value{},
	}
	for _, r := range runs {
		w.OpsTotal += r.opsTotal
		w.OpsFailed += r.opsFailed
		for _, f := range r.failures {
			if len(w.Failures) < maxFailuresKept {
				w.Failures = append(w.Failures, f)
			}
		}
	}
	collect := func(defs []metricDef, pick func(*runResult) map[string]float64, into map[string]Value) {
		for _, d := range defs {
			var vals []float64
			for _, r := range runs {
				if v, ok := pick(r)[d.name]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) > 0 {
				into[d.name] = Value{Value: median(vals), Unit: d.unit, Spread: spread(vals), Runs: vals}
			}
		}
	}
	collect(endToEnd, func(r *runResult) map[string]float64 { return r.endToEnd }, w.EndToEnd)
	collect(perLayer, func(r *runResult) map[string]float64 { return r.perLayer }, w.PerLayer)
	return w
}

// asRun turns a one-run report entry back into that run, so that runs
// made by child processes fold like runs made here.
func (w *WorkloadReport) asRun() *runResult {
	r := &runResult{
		name: w.Name, passes: w.Passes, opsTotal: w.OpsTotal, opsFailed: w.OpsFailed,
		failures: w.Failures, samples: w.Samples,
		endToEnd: map[string]float64{}, perLayer: map[string]float64{},
	}
	for name, v := range w.EndToEnd {
		r.endToEnd[name] = v.Value
	}
	for name, v := range w.PerLayer {
		r.perLayer[name] = v.Value
	}
	return r
}

// print writes every metric of the workload by name with its unit.
func (w *WorkloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s  (passes: %d cold, %d warm-up, %d timed, %d traced, %d at Workers=1; %d ops/pass)\n",
		w.Name, w.Passes.Cold, w.Passes.WarmUp, w.Passes.Timed, w.Passes.Traced, w.Passes.OneWorker, w.Passes.OpsPerPass)
	fmt.Fprintf(out, "   ops_total %d  ops_failed %d\n", w.OpsTotal, w.OpsFailed)
	for _, f := range w.Failures {
		fmt.Fprintf(out, "   FAILED: %s\n", f)
	}
	printSection := func(title string, defs []metricDef, vals map[string]Value) {
		if len(vals) == 0 {
			return
		}
		fmt.Fprintf(out, "   -- %s\n", title)
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "   %-32s %16.6g %-8s", d.name, v.Value, v.Unit)
			if n, ok := w.Samples[d.name]; ok {
				fmt.Fprintf(out, " n=%d", n)
			}
			if len(v.Runs) >= 4 {
				fmt.Fprintf(out, " spread=%.2f%%", 100*v.Spread)
			}
			fmt.Fprintln(out)
		}
	}
	printSection("end to end", endToEnd, w.EndToEnd)
	printSection("per layer", perLayer, w.PerLayer)
}

// writeJSON writes v as indented JSON to path, creating its directory.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readReport loads a report strictly: unknown fields and a foreign
// schema are errors, so -compare never silently reads something else.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}
