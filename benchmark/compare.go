package main

import (
	"fmt"
	"io"
)

// This file is the noise-aware gate: it sets two reports of this
// benchmark side by side and gives every workload × end-to-end metric a
// verdict against the bound the benchmark fixed for it.
//
//	better      improved by more than the bound
//	within      moved by no more than the bound, either way
//	worse       worsened by more than the bound
//	unresolved  either report's own run-to-run spread is wider than the
//	            bound, so the two medians cannot be told apart — unless
//	            every run of one side beats every run of the other
//
// The exit code is non-zero on any "worse" and on any rise of
// ops_failed / ops_total.

type verdict string

const (
	better     verdict = "better"
	within     verdict = "within"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares one metric of the old and the current report.
func judge(d metricDef, old, cur Value) verdict {
	sign := 1.0
	if d.better == "higher" {
		sign = -1
	}
	if max(old.Spread, cur.Spread) > d.bound {
		// Too noisy for the medians to decide; only disjoint samples do.
		switch {
		case disjoint(cur.Runs, old.Runs, sign):
			return better
		case disjoint(old.Runs, cur.Runs, sign):
			return worse
		}
		return unresolved
	}
	// worsening is the relative change in the bad direction.
	switch worsening := sign * ratio(cur.Value-old.Value, old.Value); {
	case worsening > d.bound:
		return worse
	case worsening < -d.bound:
		return better
	}
	return within
}

// disjoint reports whether every run of a reads better than every run
// of b (sign = +1 when lower is better, -1 when higher is).
func disjoint(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstA, bestB := sign*a[0], sign*b[0]
	for _, v := range a {
		worstA = max(worstA, sign*v)
	}
	for _, v := range b {
		bestB = min(bestB, sign*v)
	}
	return worstA < bestB
}

// sameSetting refuses pairs of reports whose numbers do not mean the
// same thing.
func sameSetting(old, cur *Report) error {
	if old.Env.GOMAXPROCS != cur.Env.GOMAXPROCS {
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", old.Env.GOMAXPROCS, cur.Env.GOMAXPROCS)
	}
	if old.Env.Seed != cur.Env.Seed || old.Env.Repeat != cur.Env.Repeat {
		return fmt.Errorf("seeds differ: seed %d × %d runs vs seed %d × %d runs",
			old.Env.Seed, old.Env.Repeat, cur.Env.Seed, cur.Env.Repeat)
	}
	for _, ow := range old.Workloads {
		nw := cur.workload(ow.Name)
		if nw == nil {
			return fmt.Errorf("workload %s is missing from the new report", ow.Name)
		}
		if ow.Passes != nw.Passes {
			return fmt.Errorf("workload %s: pass counts differ: %+v vs %+v", ow.Name, ow.Passes, nw.Passes)
		}
	}
	if len(cur.Workloads) != len(old.Workloads) {
		return fmt.Errorf("the new report has %d workloads, the old one %d", len(cur.Workloads), len(old.Workloads))
	}
	return nil
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cur, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := sameSetting(old, cur); err != nil {
		fmt.Fprintln(stderr, "benchmark: refusing to compare:", err)
		return 2
	}
	fmt.Fprintf(stdout, "old: %s (commit %s)\nnew: %s (commit %s)\n", oldPath, old.Env.GitCommit, newPath, cur.Env.GitCommit)
	if old.Env.Repeat < 4 {
		fmt.Fprintln(stdout, "note: fewer than 4 runs per report, so no run-to-run spread is recorded and nothing can come out unresolved")
	}
	bad := 0
	for _, ow := range old.Workloads {
		nw := cur.workload(ow.Name)
		fmt.Fprintf(stdout, "\n== %s\n", ow.Name)
		fmt.Fprintf(stdout, "   %-20s %14s %14s %9s %7s %8s %8s  %s\n",
			"metric", "old", "new", "change", "bound", "spread_o", "spread_n", "verdict")
		for _, d := range endToEnd {
			o, okO := ow.EndToEnd[d.name]
			n, okN := nw.EndToEnd[d.name]
			if !okO || !okN {
				continue
			}
			v := judge(d, o, n)
			if v == worse {
				bad++
			}
			// change is printed in the metric's own direction: + is up.
			fmt.Fprintf(stdout, "   %-20s %14.6g %14.6g %+8.2f%% %6.0f%% %7.2f%% %7.2f%%  %s\n",
				d.name, o.Value, n.Value, 100*ratio(n.Value-o.Value, o.Value), 100*d.bound,
				100*o.Spread, 100*n.Spread, v)
		}
		fmt.Fprintf(stdout, "   ops_failed/ops_total %d/%d -> %d/%d\n", ow.OpsFailed, ow.OpsTotal, nw.OpsFailed, nw.OpsTotal)
		if ratio(float64(nw.OpsFailed), float64(nw.OpsTotal)) > ratio(float64(ow.OpsFailed), float64(ow.OpsTotal)) {
			fmt.Fprintln(stdout, "   FAILED OPS ROSE")
			bad++
		}
	}
	if bad != 0 {
		fmt.Fprintf(stdout, "\n%d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "\nno regression")
	return 0
}
