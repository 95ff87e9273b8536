package telemetry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
)

// completeRuns records n completed runs into rec through run scopes.
// Tests call it before attaching rec, so the runs reach the counters
// but not the sink's latency series.
func completeRuns(rec *obs.Recorder, n int) {
	for range n {
		s := rec.StartRun()
		s.MarkComplete()
		s.End()
	}
}

// recordPool records a pool delta into rec through a run scope that
// does not complete, so no run is counted.
func recordPool(rec *obs.Recorder, p obs.PoolCounters) {
	s := rec.StartRun()
	s.AddPool(p)
	s.End()
}

func testTelemetry(t *testing.T, clk *testClock) *Telemetry {
	t.Helper()
	return New(Config{
		Window:     time.Second,
		Slots:      2,
		FlightPath: filepath.Join(t.TempDir(), "flight.json"),
		Now:        clk.now,
	})
}

// TestSinkWiring drives a real recorder run with the registry attached
// and checks the push path end to end: phase spans land in the phase
// histograms, the completed run lands in the run histogram, and the
// flight recorder holds the structured event trail.
func TestSinkWiring(t *testing.T) {
	clk := &testClock{t: 1}
	tel := testTelemetry(t, clk)
	rec := obs.NewRecorder()
	tel.AttachRecorder(rec)

	scope := rec.StartRun()
	end := scope.Span(obs.PhasePlanRowWork)
	end()
	end = scope.Span(obs.PhaseExecKernel)
	end()
	scope.Event(obs.EventTileBatch, obs.PhaseExecKernel, 3, 32)
	scope.MarkComplete()
	scope.End()

	if got := tel.PhaseWindow(obs.PhasePlanRowWork).Count; got != 1 {
		t.Fatalf("plan.row_work window count %d, want 1", got)
	}
	if got := tel.PhaseWindow(obs.PhaseExecKernel).Count; got != 1 {
		t.Fatalf("exec.kernel window count %d, want 1", got)
	}
	if got := tel.RunWindow().Count; got != 1 {
		t.Fatalf("run window count %d, want 1", got)
	}

	d := tel.Flight().BuildDump("forced", "", nil, "")
	var kinds []string
	for _, e := range d.Events {
		kinds = append(kinds, e.Kind)
	}
	trail := strings.Join(kinds, ",")
	for _, want := range []string{"run_start", "phase", "tile_batch", "run_end"} {
		if !strings.Contains(trail, want) {
			t.Fatalf("flight trail %q missing %q", trail, want)
		}
	}
	// The run's events all carry its multiply sequence id.
	for _, e := range d.Events {
		if e.RunSeq == 0 {
			t.Fatalf("event %s has no run sequence", e.Kind)
		}
	}
}

// TestSinkAbandonedRunNotRecorded pins that a run ended without
// MarkComplete (an error path) records no run latency — failed runs must
// not pollute the latency distribution.
func TestSinkAbandonedRunNotRecorded(t *testing.T) {
	clk := &testClock{t: 1}
	tel := testTelemetry(t, clk)
	rec := obs.NewRecorder()
	tel.AttachRecorder(rec)
	scope := rec.StartRun()
	scope.End() // no MarkComplete
	if got := tel.RunWindow().Count; got != 0 {
		t.Fatalf("abandoned run recorded a latency (count %d)", got)
	}
}

// TestRetryEvents pins the counter-fold event emissions: retry-ladder
// activity lands in the flight recorder as it happens.
func TestRetryEvents(t *testing.T) {
	clk := &testClock{t: 1}
	tel := testTelemetry(t, clk)
	rec := obs.NewRecorder()
	tel.AttachRecorder(rec)

	rec.AddRetry(obs.RetryCounters{Attempts: 1, Retries: 1, Degradations: 1, Stalls: 1})
	rec.AddRetry(obs.RetryCounters{Failures: 1})

	d := tel.Flight().BuildDump("forced", "", nil, "")
	got := map[string]int{}
	for _, e := range d.Events {
		got[e.Kind]++
	}
	for _, want := range []string{"retry", "stall", "failure"} {
		if got[want] == 0 {
			t.Fatalf("no %q event in flight recorder (have %v)", want, got)
		}
	}
}

// TestAggregateStats pins that /metrics counters sum over every attached
// recorder — the bench tool attaches a fresh one per graph and none of
// their runs may vanish from the totals.
func TestAggregateStats(t *testing.T) {
	clk := &testClock{t: 1}
	tel := testTelemetry(t, clk)
	r1, r2 := obs.NewRecorder(), obs.NewRecorder()
	completeRuns(r1, 2)
	completeRuns(r2, 1)
	tel.AttachRecorder(r1)
	tel.AttachRecorder(r2)
	r1.AddRetry(obs.RetryCounters{Attempts: 2, Retries: 1})
	r2.AddRetry(obs.RetryCounters{Attempts: 3})

	s := tel.aggregateStats()
	if s.Runs != 3 {
		t.Fatalf("aggregate runs %d, want 3", s.Runs)
	}
	if s.Retry.Attempts != 5 || s.Retry.Retries != 1 {
		t.Fatalf("aggregate retry %+v, want attempts=5 retries=1", s.Retry)
	}
	// Re-attaching is idempotent: no double counting.
	tel.AttachRecorder(r1)
	if s2 := tel.aggregateStats(); s2.Runs != 3 {
		t.Fatalf("re-attach changed aggregate runs to %d", s2.Runs)
	}
}

// TestClassifyFailure pins the dump-reason taxonomy.
func TestClassifyFailure(t *testing.T) {
	stall := fmt.Errorf("attempt 3: %w", &sched.StallError{Timeout: time.Millisecond, Tiles: 8})
	panicked := fmt.Errorf("contained: %w", &sched.PanicError{Value: "boom", Worker: 2})
	cases := []struct {
		err  error
		want string
	}{
		{nil, "forced"},
		{stall, "stall"},
		{panicked, "panic"},
		{errors.New("some transient fault"), "retry-exhausted"},
	}
	for _, c := range cases {
		if got := classifyFailure(c.err); got != c.want {
			t.Fatalf("classifyFailure(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestDumpFailureStall writes a stall dump to disk and checks the
// document carries the watchdog's stacks and the preceding event window,
// and validates against the flightrec/v2 schema.
func TestDumpFailureStall(t *testing.T) {
	clk := &testClock{t: 1}
	tel := testTelemetry(t, clk)
	tel.Event(7, obs.EventRunStart, obs.PhaseNone, 0, 0)
	tel.Event(7, obs.EventTileBatch, obs.PhaseExecKernel, 5, 40)

	se := &sched.StallError{
		Timeout: 25 * time.Millisecond,
		Done:    40, Tiles: 64,
		Stacks: []byte("goroutine 12 [sleep]:\nworker stuck here"),
	}
	path, err := tel.DumpFailure("", fmt.Errorf("multiply failed: %w", se))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlightJSON(data); err != nil {
		t.Fatalf("dump on disk fails validation: %v", err)
	}
	text := string(data)
	for _, want := range []string{
		`"reason": "stall"`, "worker stuck here", `"done": 40`, `"tiles": 64`,
		`"kind": "run_start"`, `"kind": "tile_batch"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("dump missing %q:\n%s", want, text)
		}
	}
	if tel.Dumps() != 1 || tel.LastDumpPath() != path {
		t.Fatalf("dump bookkeeping: dumps=%d last=%q, want 1/%q", tel.Dumps(), tel.LastDumpPath(), path)
	}
}

// TestDumpFailurePanic pins the panic-dump variant: the contained
// panic's stack rides along under panic_stack.
func TestDumpFailurePanic(t *testing.T) {
	clk := &testClock{t: 1}
	tel := testTelemetry(t, clk)
	pe := &sched.PanicError{Value: "boom", Stack: []byte("panic stack here"), Worker: 1}
	path, err := tel.DumpFailure("", pe)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), `"reason": "panic"`) ||
		!strings.Contains(string(data), "panic stack here") {
		t.Fatalf("panic dump missing reason or stack:\n%s", data)
	}
}

// TestWrapInjector pins the chaos tap: armed decisions are recorded as
// chaos events before they execute; quiet decisions are not.
func TestWrapInjector(t *testing.T) {
	clk := &testClock{t: 1}
	tel := testTelemetry(t, clk)
	armed := false
	inj := tel.WrapInjector(chaos.Func(func(p chaos.Point) chaos.Fault {
		if armed && p == chaos.TileClaim {
			return chaos.Fault{Kind: chaos.KindDelay, Delay: time.Millisecond}
		}
		return chaos.Fault{}
	}))

	inj.Decide(chaos.TileClaim) // quiet
	before := tel.Flight().Seq()
	armed = true
	f := inj.Decide(chaos.TileClaim) // fires
	if f.Kind != chaos.KindDelay {
		t.Fatalf("tap altered the decision: %v", f.Kind)
	}
	if tel.Flight().Seq() != before+1 {
		t.Fatalf("armed decision not recorded (seq %d -> %d)", before, tel.Flight().Seq())
	}
	d := tel.Flight().BuildDump("forced", "", nil, "")
	last := d.Events[len(d.Events)-1]
	if last.Kind != "chaos" || last.A != int64(chaos.TileClaim) || last.B != int64(chaos.KindDelay) {
		t.Fatalf("chaos event payload %+v, want point/kind identifiers", last)
	}

	if got := tel.WrapInjector(nil); got != nil {
		t.Fatalf("nil injector should pass through nil")
	}
	var nilTel *Telemetry
	raw := chaos.Func(func(chaos.Point) chaos.Fault { return chaos.Fault{} })
	if got := nilTel.WrapInjector(raw); got == nil {
		t.Fatalf("nil registry should pass the injector through unchanged")
	}
}

// TestNilRegistrySafe pins that every registry entry point is nil-safe —
// telemetry off must never be a crash.
func TestNilRegistrySafe(t *testing.T) {
	var tel *Telemetry
	tel.RecordPhase(obs.PhaseExecKernel, time.Millisecond)
	tel.RecordRun(time.Millisecond)
	tel.Event(0, obs.EventPhase, obs.PhaseExecKernel, 0, 0)
	tel.AttachRecorder(obs.NewRecorder())
	tel.AttachEngine(nil)
	if tel.Recorder() != nil || tel.Flight() != nil || tel.Dumps() != 0 || tel.LastDumpPath() != "" {
		t.Fatal("nil registry accessors should return zero values")
	}
	if s := tel.RunWindow(); s.Count != 0 {
		t.Fatal("nil registry window should be empty")
	}
	if path, err := tel.DumpFailure("forced", nil); path != "" || err != nil {
		t.Fatalf("nil registry DumpFailure = (%q, %v), want no-op", path, err)
	}
}
