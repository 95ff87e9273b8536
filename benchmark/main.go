// Command benchmark is the repository's yardstick: five named workloads
// measured end to end through the public spgemm facade, plus a traced
// run that attributes their time to the layers underneath. See README.md
// in this directory for the glossary and BENCHMARK.json at the repository
// root for the contract.
//
//	go run ./benchmark                       # all five workloads, both halves
//	go run ./benchmark -workload bc-road     # one workload
//	go run ./benchmark -compare old.json new.json
//
// The benchmark driver calls it as
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output: one JSON object with the
// keys correct, attempted, failed and metrics — the end-to-end metrics
// with --trace 0, the per-layer ledger with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// driverLine is the last line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run only this workload (default: all five)")
		seed         = fs.Uint64("seed", 1, "XORed into every graph generator's seed")
		seconds      = fs.Float64("seconds", refSeconds, "nominal length of the timed passes; pass counts scale with it, never below 100 timed ops")
		trace        = fs.String("trace", "", "0 = end-to-end metrics only, 1 = per-layer ledger only (default: both)")
		scale        = fs.String("scale", "full", "full, or small (graphs ÷ 16, 2 timed passes, 20 probe calls) for smoke tests")
		repeat       = fs.Int("repeat", 1, "complete runs per workload, each in a fresh process, on seeds seed, seed+1, ...; from 4 up the report carries each metric's run-to-run spread")
		out          = fs.String("out", filepath.Join(".bench_out", "benchmark.json"), "where to write the report")
		traceOut     = fs.String("trace-out", ".bench_out", "directory for the span files of the traced runs")
		compare      = fs.Bool("compare", false, "compare two reports: -compare old.json new.json")
		manifest     = fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two report files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	cfg := runConfig{seconds: *seconds, probeCalls: 200}
	switch *trace {
	case "":
		cfg.mode = modeBoth
	case "0":
		cfg.mode = modeEndToEnd
	case "1":
		cfg.mode = modeLayers
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %q, want 0 or 1\n", *trace)
		return 2
	}
	switch *scale {
	case "full":
	case "small":
		cfg.shift, cfg.passes, cfg.probeCalls = 4, 2, 20
	default:
		fmt.Fprintf(stderr, "benchmark: -scale %q, want full or small\n", *scale)
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -repeat must be positive")
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{w}
	}

	// One process loads the machine's cores the way one caller of the
	// library would; four is as far as the reference numbers were taken.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	report := Report{Schema: reportSchema, Env: currentEnv()}
	report.Env.Seed, report.Env.Seconds, report.Env.Scale, report.Env.Repeat = *seed, *seconds, *scale, *repeat
	fmt.Fprintf(stdout, "benchmark: nproc %d, GOMAXPROCS %d, %s, commit %s, cpu %q, seed %d, seconds %g, scale %s, repeat %d\n",
		report.Env.NProc, report.Env.GOMAXPROCS, report.Env.GoVersion, report.Env.GitCommit,
		report.Env.CPUModel, *seed, *seconds, *scale, *repeat)

	// A single run happens here; repetitions each get a fresh process,
	// as the driver gives them, so that no run inherits the heap layout
	// the previous one left behind.
	runOne := func(w workload, seed uint64) (*runResult, error) {
		cfg.seed = seed
		var tr *tracer
		if cfg.mode != modeEndToEnd {
			tr = newTracer()
		}
		res, err := runWorkload(w, cfg, tr)
		if err != nil || tr == nil {
			return res, err
		}
		path := filepath.Join(*traceOut, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		return res, tr.write(path, w.name, seed)
	}
	if *repeat > 1 {
		runOne = func(w workload, seed uint64) (*runResult, error) {
			return runChild(w, seed, *seconds, *trace, *scale, filepath.Dir(*out), *traceOut)
		}
	}
	for _, w := range selected {
		var runs []*runResult
		for rep := 0; rep < *repeat; rep++ {
			res, err := runOne(w, *seed+uint64(rep))
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			runs = append(runs, res)
		}
		wr := fold(runs)
		wr.print(stdout)
		report.Workloads = append(report.Workloads, wr)
	}
	if err := writeJSON(*out, report); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nreport written to %s\n", *out)

	line := driverLine{Correct: true, Metrics: map[string]driverMetric{}}
	for _, w := range report.Workloads {
		line.Attempted += w.OpsTotal
		line.Failed += w.OpsFailed
		// With several workloads in one invocation the last line is a
		// summary only; the driver always asks for one.
		if len(report.Workloads) == 1 {
			for name, v := range w.EndToEnd {
				line.Metrics[name] = driverMetric{v.Value, v.Unit}
			}
			for name, v := range w.PerLayer {
				line.Metrics[name] = driverMetric{v.Value, v.Unit}
			}
		}
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if line.Failed != 0 {
		return 1
	}
	return 0
}

// runChild runs one workload once in a child process of this same
// program and reads its report back. The child's own exit code is not
// consulted: a run with failed ops still writes its report, and the
// failures are carried over in it.
func runChild(w workload, seed uint64, seconds float64, trace, scale, dir, traceOut string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("run-%s-seed%d.json", w.name, seed))
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-scale", scale, "-out", path, "-trace-out", traceOut}
	if trace != "" {
		args = append(args, "-trace", trace)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	rep, err := readReport(path)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("%s seed %d: child run left no report: %w", w.name, seed, err), runErr)
	}
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	if len(rep.Workloads) != 1 {
		return nil, fmt.Errorf("%s seed %d: child report holds %d workloads", w.name, seed, len(rep.Workloads))
	}
	return rep.Workloads[0].asRun(), nil
}

// writeManifest prints BENCHMARK.json from the tables in this package,
// so the contract at the repository root and the code cannot drift.
func writeManifest(out io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: refSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
