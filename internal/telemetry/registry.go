package telemetry

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
)

// Config sizes a Telemetry registry.
type Config struct {
	// Window is the rolling-histogram slot width (default 60s).
	Window time.Duration
	// Slots is how many retired windows each series retains (default 6,
	// so quantiles cover roughly the last 6–7 windows).
	Slots int
	// FlightEvents is the flight-recorder ring capacity (default 4096).
	FlightEvents int
	// FlightPath is where failure dumps are written (default
	// "spgemm_flight.json" in the working directory).
	FlightPath string
	// Now supplies wall time in unix nanoseconds; nil means the real
	// clock. Injectable for tests.
	Now func() int64
}

// Telemetry is the live-observability registry: one rolling latency
// series per pipeline phase plus one for whole runs, a flight recorder,
// and references to the recorders and engines it reports for. It
// implements obs.Sink, so attaching it to a Recorder (AttachRecorder)
// routes every span close and structured event here with zero steady-
// state allocations.
type Telemetry struct {
	cfg Config
	now func() int64

	phases [obs.PhaseCount]*Windowed
	runs   *Windowed
	flight *FlightRecorder

	// rec is the registry's own recorder: the fallback the facade routes
	// runs through when the caller attached no StatsRecorder, so live
	// metrics work with zero configuration beyond the telemetry itself.
	rec *obs.Recorder

	mu        sync.Mutex
	recorders []*obs.Recorder
	engines   []*exec.Engine

	dumps    atomic.Int64
	lastDump atomic.Pointer[string]
}

// New returns a registry with the given configuration.
func New(cfg Config) *Telemetry {
	if cfg.Window <= 0 {
		cfg.Window = 60 * time.Second
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 6
	}
	if cfg.FlightEvents <= 0 {
		cfg.FlightEvents = 4096
	}
	if cfg.FlightPath == "" {
		cfg.FlightPath = "spgemm_flight.json"
	}
	now := cfg.Now
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	t := &Telemetry{cfg: cfg, now: now}
	for p := range t.phases {
		t.phases[p] = NewWindowed(int64(cfg.Window), cfg.Slots, now)
	}
	t.runs = NewWindowed(int64(cfg.Window), cfg.Slots, now)
	t.flight = NewFlightRecorder(cfg.FlightEvents, now)
	t.rec = obs.NewRecorder()
	t.AttachRecorder(t.rec)
	return t
}

// Recorder returns the registry's own recorder — the zero-config
// fallback runs record into when no StatsRecorder is attached.
func (t *Telemetry) Recorder() *obs.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// AttachRecorder registers a recorder with the registry and installs
// the registry as its live sink. Idempotent per recorder; nil-safe on
// both sides. The most recently attached recorder backs /stats.
func (t *Telemetry) AttachRecorder(r *obs.Recorder) {
	if t == nil || r == nil {
		return
	}
	r.SetSink(t)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, have := range t.recorders {
		if have == r {
			return
		}
	}
	// Bound the list: a caller attaching per-run recorders in a loop
	// should not grow the registry without limit.
	if len(t.recorders) >= 64 {
		copy(t.recorders, t.recorders[1:])
		t.recorders = t.recorders[:len(t.recorders)-1]
	}
	t.recorders = append(t.recorders, r)
}

// AttachEngine registers an execution engine so /metrics reports its
// pool and plan-cache counters live (rather than the per-run deltas a
// recorder folds in). Idempotent; nil-safe.
func (t *Telemetry) AttachEngine(e *exec.Engine) {
	if t == nil || e == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, have := range t.engines {
		if have == e {
			return
		}
	}
	if len(t.engines) >= 64 {
		copy(t.engines, t.engines[1:])
		t.engines = t.engines[:len(t.engines)-1]
	}
	t.engines = append(t.engines, e)
}

// statsRecorder returns the recorder backing /stats (the most recently
// attached), or nil.
func (t *Telemetry) statsRecorder() *obs.Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.recorders); n > 0 {
		return t.recorders[n-1]
	}
	return nil
}

// attachedRecorders snapshots the recorder list.
func (t *Telemetry) attachedRecorders() []*obs.Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*obs.Recorder, len(t.recorders))
	copy(out, t.recorders)
	return out
}

// aggregateStats sums counter state across every attached recorder —
// the source for the /metrics counter families. Each run records into
// exactly one recorder, so the sum attributes every run once even when
// a caller attaches fresh recorders over time (the bench tool uses one
// per graph).
func (t *Telemetry) aggregateStats() obs.Stats {
	sum := obs.Stats{Schema: obs.StatsSchema}
	for _, r := range t.attachedRecorders() {
		sum.Add(r.Stats())
	}
	return sum
}

// attachedEngines snapshots the engine list.
func (t *Telemetry) attachedEngines() []*exec.Engine {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*exec.Engine, len(t.engines))
	copy(out, t.engines)
	return out
}

// RecordPhase implements obs.Sink: one closed phase span's wall time
// lands in that phase's rolling histogram.
//
//spgemm:hotpath
func (t *Telemetry) RecordPhase(p obs.Phase, d time.Duration) {
	if t == nil || p < 0 || int(p) >= obs.PhaseCount {
		return
	}
	t.phases[p].Record(int64(d))
}

// RecordRun implements obs.Sink: one completed run's latency lands in
// the run-level rolling histogram.
//
//spgemm:hotpath
func (t *Telemetry) RecordRun(d time.Duration) {
	if t == nil {
		return
	}
	t.runs.Record(int64(d))
}

// Event implements obs.Sink: every structured event is appended to the
// flight recorder.
//
//spgemm:hotpath
func (t *Telemetry) Event(runSeq int64, k obs.EventKind, p obs.Phase, a, b int64) {
	if t == nil {
		return
	}
	t.flight.Append(runSeq, k, p, a, b)
}

// PhaseWindow returns the rolling snapshot for one phase (zero snapshot
// for out-of-range phases or a nil registry).
func (t *Telemetry) PhaseWindow(p obs.Phase) HistSnapshot {
	if t == nil || p < 0 || int(p) >= obs.PhaseCount {
		return HistSnapshot{}
	}
	return t.phases[p].Snapshot()
}

// PhaseCumulative returns the lifetime snapshot for one phase.
func (t *Telemetry) PhaseCumulative(p obs.Phase) HistSnapshot {
	if t == nil || p < 0 || int(p) >= obs.PhaseCount {
		return HistSnapshot{}
	}
	return t.phases[p].Cumulative()
}

// RunWindow returns the rolling run-latency snapshot.
func (t *Telemetry) RunWindow() HistSnapshot {
	if t == nil {
		return HistSnapshot{}
	}
	return t.runs.Snapshot()
}

// RunCumulative returns the lifetime run-latency snapshot.
func (t *Telemetry) RunCumulative() HistSnapshot {
	if t == nil {
		return HistSnapshot{}
	}
	return t.runs.Cumulative()
}

// Flight exposes the flight recorder (nil for a nil registry).
func (t *Telemetry) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight
}

// Dumps reports how many failure dumps have been written.
func (t *Telemetry) Dumps() int64 {
	if t == nil {
		return 0
	}
	return t.dumps.Load()
}

// LastDumpPath returns the most recently written dump's path ("" when
// none).
func (t *Telemetry) LastDumpPath() string {
	if t == nil {
		return ""
	}
	if p := t.lastDump.Load(); p != nil {
		return *p
	}
	return ""
}

// BuildFailureDump classifies err and renders the flight ring as a dump
// document. reason overrides the classification when non-empty (the
// caller knows better — e.g. "retry-exhausted" after the ladder gave
// up on a retryable error).
func (t *Telemetry) BuildFailureDump(reason string, err error) FlightDump {
	if reason == "" {
		reason = classifyFailure(err)
	}
	var errText string
	if err != nil {
		errText = err.Error()
	}
	var stall *FlightStall
	var se *sched.StallError
	if errors.As(err, &se) {
		stall = &FlightStall{
			TimeoutNS: int64(se.Timeout),
			Done:      se.Done,
			Tiles:     se.Tiles,
			Stacks:    string(se.Stacks),
		}
	}
	var panicStack string
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		panicStack = string(pe.Stack)
	}
	return t.flight.BuildDump(reason, errText, stall, panicStack)
}

// classifyFailure maps an error chain onto a dump reason. The typed
// captures (not core's sentinels) drive the classification, so the
// package needs no dependency on the kernel layer.
func classifyFailure(err error) string {
	if err == nil {
		return "forced"
	}
	var se *sched.StallError
	if errors.As(err, &se) {
		return "stall"
	}
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		return "panic"
	}
	return "retry-exhausted"
}

// DumpFailure writes a failure dump to the configured FlightPath,
// validating the document against the flightrec/v2 schema before it
// lands (a dump that cannot be parsed back is worse than no dump).
// Returns the path written. Never called from the hot path — only when
// a multiply has already failed terminally.
func (t *Telemetry) DumpFailure(reason string, err error) (string, error) {
	if t == nil {
		return "", nil
	}
	d := t.BuildFailureDump(reason, err)
	data, merr := obs.MarshalJSONBytes(d)
	if merr != nil {
		return "", fmt.Errorf("telemetry: encode flight dump: %w", merr)
	}
	if verr := ValidateFlightJSON(data); verr != nil {
		return "", fmt.Errorf("telemetry: flight dump failed self-validation: %w", verr)
	}
	if werr := os.WriteFile(t.cfg.FlightPath, data, 0o644); werr != nil {
		return "", fmt.Errorf("telemetry: write flight dump: %w", werr)
	}
	t.dumps.Add(1)
	path := t.cfg.FlightPath
	t.lastDump.Store(&path)
	return path, nil
}

// chaosTap wraps an Injector so every injected fault also lands in the
// flight recorder — the postmortem shows the chaos that preceded the
// failure.
type chaosTap struct {
	inner chaos.Injector
	t     *Telemetry
}

// Decide implements chaos.Injector.
func (c *chaosTap) Decide(p chaos.Point) chaos.Fault {
	f := c.inner.Decide(p)
	if f.Kind != chaos.KindNone {
		c.t.Event(0, obs.EventChaos, obs.PhaseNone, int64(p), int64(f.Kind))
	}
	return f
}

// WrapInjector returns inj with a flight-recorder tap: armed decisions
// are recorded as EventChaos before they execute. A nil inj (or nil
// registry) passes through unchanged.
func (t *Telemetry) WrapInjector(inj chaos.Injector) chaos.Injector {
	if t == nil || inj == nil {
		return inj
	}
	return &chaosTap{inner: inj, t: t}
}
