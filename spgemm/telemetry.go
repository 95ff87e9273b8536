package spgemm

import (
	"io"
	"net/http"
	"time"

	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/telemetry"
)

// Telemetry is the live-observability registry: rolling latency
// histograms per pipeline phase and per run, live pool/plan-cache/retry
// counters, a black-box flight recorder, and an opt-in HTTP debug
// server exposing all of it. Attach one via EngineConfig.Telemetry and
// every multiplication through that engine reports here as it runs —
// no StatsRecorder required (though an attached one participates too):
//
//	tel := spgemm.NewTelemetry(spgemm.TelemetryConfig{})
//	eng := spgemm.NewEngine(spgemm.EngineConfig{Telemetry: tel})
//	srv, _ := tel.Start(":6060")
//	defer srv.Close()
//	// curl localhost:6060/metrics — p50/p99 per phase, pool hit rate, …
//
// The record path is allocation-free and lock-free (atomic histogram
// buckets), so telemetry can stay on in production. On a stall, panic
// or retry exhaustion the flight recorder's event window — phase
// transitions, tile-batch progress, retry steps, chaos injections,
// plus the StallError goroutine stacks — is dumped to a
// schema-validated flightrec/v2 JSON file for postmortem analysis.
//
// A nil *Telemetry disables everything, matching the package's nil
// conventions. A Telemetry may back any number of engines.
type Telemetry struct {
	t *telemetry.Telemetry
}

// TelemetryConfig sizes a Telemetry registry. The zero value selects
// the defaults.
type TelemetryConfig struct {
	// Window is the rolling-quantile slot width: /metrics quantiles
	// cover roughly the last Slots+1 windows. 0 = 60s.
	Window time.Duration
	// Slots is how many retired windows each latency series keeps.
	// 0 = 6.
	Slots int
	// FlightEvents is the flight-recorder ring capacity — how many
	// events a failure dump can look back over. 0 = 4096.
	FlightEvents int
	// FlightPath is where failure dumps are written.
	// "" = "spgemm_flight.json" in the working directory.
	FlightPath string
}

// NewTelemetry builds a live-observability registry.
func NewTelemetry(cfg TelemetryConfig) *Telemetry {
	return &Telemetry{t: telemetry.New(telemetry.Config{
		Window:       cfg.Window,
		Slots:        cfg.Slots,
		FlightEvents: cfg.FlightEvents,
		FlightPath:   cfg.FlightPath,
	})}
}

// TelemetryServer is one running debug listener (see Telemetry.Start).
type TelemetryServer = telemetry.Server

// Handler returns the debug mux — /metrics (Prometheus text
// exposition), /stats (stats/v3 JSON), /flight (forced flightrec/v2
// dump), /healthz (engine pool invariants), /debug/vars and
// /debug/pprof — for callers that mount it on their own server. Nil
// receivers return an empty mux.
func (t *Telemetry) Handler() http.Handler {
	if t == nil {
		return http.NewServeMux()
	}
	return t.t.Handler()
}

// Start binds addr (e.g. ":6060"; ":0" picks a free port) and serves
// the debug handler in the background until the returned server's
// Close.
func (t *Telemetry) Start(addr string) (*TelemetryServer, error) {
	return t.internal().Start(addr)
}

// WriteMetrics renders the current Prometheus text exposition — what
// /metrics serves — to w. Nil-safe (writes nothing).
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	return t.internal().WriteMetrics(w)
}

// AttachRecorder registers a StatsRecorder so its runs feed the live
// histograms and flight recorder, and /stats serves its snapshots.
// Recorders routed through an engine-attached Telemetry are registered
// automatically; use this only for recorders on engineless runs.
func (t *Telemetry) AttachRecorder(s *StatsRecorder) {
	if t == nil || s == nil {
		return
	}
	t.t.AttachRecorder(s.recorder())
}

// DumpFlight writes the flight recorder's current event window as a
// flightrec/v2 dump file, classified by err (nil = "forced"), and
// returns the path written. Dumps also happen automatically on stall,
// panic and retry exhaustion; this is the manual hook. Nil-safe.
func (t *Telemetry) DumpFlight(err error) (string, error) {
	return t.internal().DumpFailure("", err)
}

// LastFlightDump returns the path of the most recent dump ("" when
// none). Nil-safe.
func (t *Telemetry) LastFlightDump() string {
	return t.internal().LastDumpPath()
}

// ValidateFlightJSON strictly round-trips a flightrec/v2 dump (unknown
// fields rejected, re-encode must be byte-identical) and checks its
// schema tag, reason enum, event kinds and sequence monotonicity —
// the flight-dump twin of ValidateStatsJSON.
func ValidateFlightJSON(data []byte) error {
	return telemetry.ValidateFlightJSON(data)
}

// internal returns the registry (nil-safe: nil receivers return nil,
// and the internal layer treats a nil registry as disabled).
func (t *Telemetry) internal() *telemetry.Telemetry {
	if t == nil {
		return nil
	}
	return t.t
}

// recorder returns the registry's built-in fallback recorder (nil for
// nil receivers), used when Options carry telemetry but no
// StatsRecorder.
func (t *Telemetry) recorder() *obs.Recorder {
	return t.internal().Recorder()
}
