package telemetry

import (
	"strings"
	"testing"
	"time"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
)

// TestWriteMetricsParses renders a populated registry and requires its
// own parser to accept the output, with the emitted families (one
// "# TYPE" line each) exactly RequiredSeries in order — the exposition
// writer and the smoke-gate scraper must stay in sync.
func TestWriteMetricsParses(t *testing.T) {
	clk := &testClock{t: 1}
	tel := testTelemetry(t, clk)
	rec := obs.NewRecorder()
	completeRuns(rec, 1)
	tel.AttachRecorder(rec)
	rec.AddRetry(obs.RetryCounters{Attempts: 1})
	tel.RecordPhase(obs.PhaseExecKernel, 3*time.Millisecond)
	tel.RecordRun(5 * time.Millisecond)

	var sb strings.Builder
	if err := tel.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, sb.String())
	}
	if missing := MissingSeries(samples, RequiredSeries); len(missing) > 0 {
		t.Fatalf("missing required series %v in:\n%s", missing, sb.String())
	}
	var families []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families = append(families, f[2])
		}
	}
	if got, want := strings.Join(families, " "), strings.Join(RequiredSeries, " "); got != want {
		t.Fatalf("emitted families:\n%s\nwant RequiredSeries:\n%s", got, want)
	}

	runs, ok := FindSample(samples, "spgemm_runs_total")
	if !ok || runs.Value != 1 {
		t.Fatalf("spgemm_runs_total = %v (ok=%v), want 1", runs.Value, ok)
	}
	count, ok := FindSample(samples, "spgemm_run_latency_seconds_count")
	if !ok || count.Value != 1 {
		t.Fatalf("run latency count = %v (ok=%v), want 1", count.Value, ok)
	}
	sum, ok := FindSample(samples, "spgemm_run_latency_seconds_sum")
	if !ok || sum.Value != 0.005 {
		t.Fatalf("run latency sum = %v, want 0.005", sum.Value)
	}
	p50, ok := FindSample(samples, "spgemm_run_latency_seconds", `quantile="0.5"`)
	if !ok || p50.Value != 0.005 {
		t.Fatalf("run latency p50 = %v (ok=%v), want 0.005 (single observation)", p50.Value, ok)
	}
	kp50, ok := FindSample(samples, "spgemm_phase_latency_seconds",
		`phase="exec.kernel"`, `quantile="0.5"`)
	if !ok || kp50.Value != 0.003 {
		t.Fatalf("exec.kernel p50 = %v (ok=%v), want 0.003", kp50.Value, ok)
	}
	// Every phase family is present, even unobserved ones (zero-valued).
	for p := obs.Phase(0); int(p) < obs.PhaseCount; p++ {
		if _, ok := FindSample(samples, "spgemm_phase_latency_seconds_count",
			`phase="`+p.String()+`"`); !ok {
			t.Fatalf("phase %s has no _count sample", p)
		}
	}
}

// TestMetricsPoolFromEngine pins the pool-counter source selection: with
// an engine attached /metrics reports its live counters; without one it
// falls back to the recorder's folded deltas.
func TestMetricsPoolFromEngine(t *testing.T) {
	clk := &testClock{t: 1}

	// No engine: recorder deltas are the source.
	tel := testTelemetry(t, clk)
	rec := obs.NewRecorder()
	tel.AttachRecorder(rec)
	recordPool(rec, obs.PoolCounters{Hits: 7, Misses: 3})
	samples := scrapeString(t, tel)
	hits, _ := FindSample(samples, "spgemm_pool_hits_total")
	rate, _ := FindSample(samples, "spgemm_pool_hit_rate")
	if hits.Value != 7 || rate.Value != 0.7 {
		t.Fatalf("recorder-sourced pool: hits=%v rate=%v, want 7/0.7", hits.Value, rate.Value)
	}

	// Engine attached: live engine counters win (zero here — no traffic
	// has touched this engine, regardless of what the recorder folded).
	tel2 := testTelemetry(t, clk)
	rec2 := obs.NewRecorder()
	tel2.AttachRecorder(rec2)
	recordPool(rec2, obs.PoolCounters{Hits: 7, Misses: 3})
	tel2.AttachEngine(exec.New(exec.Config{}))
	samples = scrapeString(t, tel2)
	hits, _ = FindSample(samples, "spgemm_pool_hits_total")
	if hits.Value != 0 {
		t.Fatalf("engine-sourced pool hits = %v, want 0 (idle engine)", hits.Value)
	}
}

func scrapeString(t *testing.T, tel *Telemetry) []Sample {
	t.Helper()
	var sb strings.Builder
	if err := tel.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestParseExpositionRejects pins the parser's strictness: malformed
// lines are errors, not silent skips.
func TestParseExpositionRejects(t *testing.T) {
	bad := []string{
		"name_only\n",
		"unbalanced{brace 1\n",
		"metric 1 2 3 extra\n", // name + 3 trailing fields: bad value line
		"metric abc\n",
		"{} 5\n",
	}
	for _, text := range bad {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("ParseExposition accepted %q", text)
		}
	}
	// Comments, blanks, label blocks and optional timestamps all parse.
	good := "# HELP x y\n# TYPE x counter\n\nx{a=\"b\",c=\"d\"} 4\ny 2 1712345678\n"
	samples, err := ParseExposition(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0].Labels != `a="b",c="d"` || samples[0].Value != 4 {
		t.Fatalf("parsed %+v", samples)
	}
}

// TestMissingSeries pins the _sum/_count suffix folding.
func TestMissingSeries(t *testing.T) {
	samples := []Sample{{Name: "a_sum"}, {Name: "b"}}
	missing := MissingSeries(samples, []string{"a", "b", "c"})
	if len(missing) != 1 || missing[0] != "c" {
		t.Fatalf("missing = %v, want [c]", missing)
	}
}
