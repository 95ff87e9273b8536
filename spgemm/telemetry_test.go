package spgemm

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/telemetry"
)

func scrapeMetrics(t *testing.T, tel *Telemetry) []telemetry.Sample {
	t.Helper()
	var sb strings.Builder
	if err := tel.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	return samples
}

// TestTelemetryMetricsMatchStats is the live-vs-post-hoc parity
// acceptance test: on a warm engine, the /metrics exposition and the
// StatsRecorder's stats/v3 snapshot must agree — run counts and phase
// span counts exactly, phase wall time and the pool hit rate within
// float tolerance — because both views observe the same spans through
// the same recorder.
func TestTelemetryMetricsMatchStats(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{
		FlightPath: filepath.Join(t.TempDir(), "flight.json"),
	})
	eng := NewEngine(EngineConfig{Telemetry: tel})
	stats := NewStatsRecorder()
	opts := Defaults()
	opts.Engine = eng
	opts.Stats = stats

	a := RandomGraph("er", 128, 12)
	for i := 0; i < 5; i++ {
		if _, err := MxM(a, a, a, opts); err != nil {
			t.Fatal(err)
		}
	}

	samples := scrapeMetrics(t, tel)
	st := stats.Stats()

	runs, ok := telemetry.FindSample(samples, "spgemm_runs_total")
	if !ok || runs.Value != float64(st.Runs) {
		t.Fatalf("spgemm_runs_total = %v, stats/v3 runs = %d", runs.Value, st.Runs)
	}
	runCount, _ := telemetry.FindSample(samples, "spgemm_run_latency_seconds_count")
	if runCount.Value != float64(st.Runs) {
		t.Fatalf("run latency count %v, want %d completed runs", runCount.Value, st.Runs)
	}

	if len(st.Phases) == 0 {
		t.Fatal("stats/v3 snapshot has no phases")
	}
	for _, ph := range st.Phases {
		label := `phase="` + ph.Phase + `"`
		count, ok := telemetry.FindSample(samples, "spgemm_phase_latency_seconds_count", label)
		if !ok {
			t.Fatalf("no _count sample for %s", label)
		}
		if count.Value != float64(ph.Count) {
			t.Fatalf("%s: /metrics count %v, stats/v3 spans %d", ph.Phase, count.Value, ph.Count)
		}
		sum, ok := telemetry.FindSample(samples, "spgemm_phase_latency_seconds_sum", label)
		if !ok {
			t.Fatalf("no _sum sample for %s", label)
		}
		wantSec := ph.Millis / 1e3
		if math.Abs(sum.Value-wantSec) > wantSec*1e-6+1e-12 {
			t.Fatalf("%s: /metrics sum %vs, stats/v3 %vs — same spans, must agree", ph.Phase, sum.Value, wantSec)
		}
		p99, ok := telemetry.FindSample(samples, "spgemm_phase_latency_seconds", label, `quantile="0.99"`)
		if !ok {
			t.Fatalf("no p99 sample for %s", label)
		}
		if p99.Value < 0 || p99.Value*1e3 > ph.Millis+1e-9 {
			t.Fatalf("%s: p99 %vs exceeds the phase's total wall time %vms", ph.Phase, p99.Value, ph.Millis)
		}
	}

	// Pool counters: the engine is live-attached, so /metrics reports its
	// counters directly; the recorder's folded deltas cover the same runs
	// and must agree.
	es := eng.Stats()
	hits, _ := telemetry.FindSample(samples, "spgemm_pool_hits_total")
	if hits.Value != float64(es.Hits) || es.Hits != st.Pool.Hits {
		t.Fatalf("pool hits: /metrics %v, engine %d, stats/v3 %d — must agree", hits.Value, es.Hits, st.Pool.Hits)
	}
	rate, _ := telemetry.FindSample(samples, "spgemm_pool_hit_rate")
	if math.Abs(rate.Value-es.HitRate()) > 1e-9 {
		t.Fatalf("pool hit rate: /metrics %v, engine %v", rate.Value, es.HitRate())
	}
	planHits, _ := telemetry.FindSample(samples, "spgemm_plan_cache_hits_total")
	if planHits.Value != float64(es.PlanHits) || es.PlanHits == 0 {
		t.Fatalf("plan cache hits: /metrics %v, engine %d (warm engine must have hits)", planHits.Value, es.PlanHits)
	}
}

// TestTelemetryStallDump is the flight-recorder acceptance test: an
// injected delay trips the stall watchdog, and the failed multiply must
// leave a schema-valid flightrec/v2 dump carrying the stall verdict's
// goroutine stacks and the event window leading up to the failure.
func TestTelemetryStallDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stall_flight.json")
	tel := NewTelemetry(TelemetryConfig{FlightPath: path})
	eng := NewEngine(EngineConfig{Telemetry: tel})

	a := RandomGraph("er", 96, 14)
	opts := Defaults()
	opts.Engine = eng
	opts.Workers = 1

	sd := chaos.NewSeeded(423)
	sd.Arm(chaos.TileClaim, chaos.KindDelay, 1, 400*time.Millisecond)
	opts.chaos = sd
	opts.StallTimeout = 25 * time.Millisecond
	_, err := MxM(a, a, a, opts)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("stalled run: %v, want ErrStalled", err)
	}

	if got := tel.LastFlightDump(); got != path {
		t.Fatalf("LastFlightDump = %q, want %q", got, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("stall left no dump: %v", err)
	}
	if err := telemetry.ValidateFlightJSON(data); err != nil {
		t.Fatalf("dump fails flightrec/v2 validation: %v", err)
	}
	text := string(data)
	for _, want := range []string{
		`"reason": "stall"`,   // classified from the typed error
		`"stacks": "`,         // the watchdog's all-goroutine snapshot
		`"kind": "run_start"`, // the event window preceding the failure
		`"kind": "chaos"`,     // the injected fault that caused it
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("dump missing %q:\n%s", want, text)
		}
	}
}

// TestTelemetryRetryExhaustionDump pins the third dump trigger: a
// retryable fault that survives the whole retry ladder.
func TestTelemetryRetryExhaustionDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	tel := NewTelemetry(TelemetryConfig{FlightPath: path})
	eng := NewEngine(EngineConfig{Telemetry: tel})

	a := RandomGraph("er", 64, 10)
	opts := Defaults()
	opts.Engine = eng
	opts.Workers = 1
	// Panic on every tile claim: every rung of the ladder fails.
	opts.chaos = chaos.Func(func(p chaos.Point) chaos.Fault {
		if p == chaos.TileClaim {
			return chaos.Fault{Kind: chaos.KindPanic}
		}
		return chaos.Fault{}
	})
	opts.Retry = Retry{MaxAttempts: 2}
	_, err := MxM(a, a, a, opts)
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("exhausted run: %v, want ErrPanic", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("retry exhaustion left no dump: %v", err)
	}
	if err := telemetry.ValidateFlightJSON(data); err != nil {
		t.Fatalf("dump fails validation: %v", err)
	}
	if !strings.Contains(string(data), `"reason": "panic"`) {
		t.Fatalf("dump not classified as panic:\n%s", data)
	}
}

// TestTelemetrySuccessNoDump pins the negative: successful runs write no
// dump file.
func TestTelemetrySuccessNoDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	tel := NewTelemetry(TelemetryConfig{FlightPath: path})
	eng := NewEngine(EngineConfig{Telemetry: tel})
	a := RandomGraph("er", 64, 10)
	opts := Defaults()
	opts.Engine = eng
	if _, err := MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("successful run left a dump at %s", path)
	}
	if tel.LastFlightDump() != "" {
		t.Fatalf("LastFlightDump = %q after a clean run", tel.LastFlightDump())
	}
}

// TestTelemetryNilSafe pins the facade's nil conventions: a nil
// *Telemetry disables everything without panics, and engines built
// without telemetry behave as before.
func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	if err := tel.WriteMetrics(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteMetrics: %v", err)
	}
	tel.AttachRecorder(NewStatsRecorder())
	tel.AttachRecorder(nil)
	if tel.LastFlightDump() != "" {
		t.Fatal("nil LastFlightDump should be empty")
	}
	if path, err := tel.DumpFlight(nil); path != "" || err != nil {
		t.Fatalf("nil DumpFlight = (%q, %v)", path, err)
	}
	if tel.Handler() == nil {
		t.Fatal("nil Handler should return an empty mux, not nil")
	}
	if _, err := tel.Start("127.0.0.1:0"); err == nil {
		t.Fatal("nil Start should fail, not serve a dead registry")
	}

	// An engine with no telemetry still multiplies.
	eng := NewEngine(EngineConfig{})
	a := RandomGraph("er", 48, 8)
	opts := Defaults()
	opts.Engine = eng
	if _, err := MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryManualDump pins DumpFlight, the operator hook.
func TestTelemetryManualDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manual.json")
	tel := NewTelemetry(TelemetryConfig{FlightPath: path})
	eng := NewEngine(EngineConfig{Telemetry: tel})
	a := RandomGraph("er", 64, 10)
	opts := Defaults()
	opts.Engine = eng
	if _, err := MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
	got, err := tel.DumpFlight(nil)
	if err != nil || got != path {
		t.Fatalf("DumpFlight = (%q, %v), want %q", got, err, path)
	}
	data, _ := os.ReadFile(path)
	if err := telemetry.ValidateFlightJSON(data); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"reason": "forced"`) {
		t.Fatalf("manual dump not forced:\n%s", data)
	}
}

// TestTelemetryWaveCounters checks that level-scheduled solves surface
// in /metrics: the wave families are present unconditionally (zero on a
// multiply-only workload) and agree with the recorder after a TRSV.
func TestTelemetryWaveCounters(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{
		FlightPath: filepath.Join(t.TempDir(), "flight.json"),
	})
	eng := NewEngine(EngineConfig{Telemetry: tel})

	// Before any solve the families exist with value zero.
	pre := scrapeMetrics(t, tel)
	if missing := telemetry.MissingSeries(pre, []string{
		"spgemm_wave_runs_total", "spgemm_waves_total", "spgemm_serial_waves_total",
		"spgemm_wave_barriers_total", "spgemm_wave_barrier_wait_seconds_total",
	}); len(missing) > 0 {
		t.Fatalf("wave families missing before any solve: %v", missing)
	}
	if s, _ := telemetry.FindSample(pre, "spgemm_wave_runs_total"); s.Value != 0 {
		t.Fatalf("wave runs before any solve = %v, want 0", s.Value)
	}

	l := triMatrix(t, 300, true, 5)
	stats := NewStatsRecorder()
	opts := Defaults()
	opts.LevelSchedule = LevelWaves
	opts.Workers = 4
	opts.Engine = eng
	opts.Stats = stats
	if _, err := TRSV(l, rhs(300), TriLower, opts); err != nil {
		t.Fatal(err)
	}

	samples := scrapeMetrics(t, tel)
	st := stats.Stats()
	if st.Sched.WaveRuns != 1 {
		t.Fatalf("stats/v3 wave runs = %d, want 1", st.Sched.WaveRuns)
	}
	runs, _ := telemetry.FindSample(samples, "spgemm_wave_runs_total")
	if runs.Value != float64(st.Sched.WaveRuns) {
		t.Fatalf("spgemm_wave_runs_total = %v, stats/v3 = %d", runs.Value, st.Sched.WaveRuns)
	}
	waves, _ := telemetry.FindSample(samples, "spgemm_waves_total")
	if waves.Value != float64(st.Sched.Waves) || waves.Value < 1 {
		t.Fatalf("spgemm_waves_total = %v, stats/v3 = %d", waves.Value, st.Sched.Waves)
	}
	barriers, _ := telemetry.FindSample(samples, "spgemm_wave_barriers_total")
	if barriers.Value != float64(st.Sched.Barriers) {
		t.Fatalf("spgemm_wave_barriers_total = %v, stats/v3 = %d", barriers.Value, st.Sched.Barriers)
	}
}
