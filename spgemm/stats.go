package spgemm

import (
	"io"

	"maskedspgemm/internal/obs"
)

// KernelStats is a machine-readable observability snapshot of one or more
// kernel runs: per-phase wall times (plan row-work/prefix-sum/
// tile-build/row-cap, exec kernel/assembly), exact per-worker counters
// with min/max/mean load-imbalance summaries, hybrid iteration-space
// decision counts, and accumulator statistics (marker overflows, hash
// probe traffic). It marshals to the stable JSON layout identified by
// StatsSchema.
//
// The aliased field types (PhaseStats, WorkerStats, Dist, ...) are
// re-exported below so the whole document is reachable from this
// package.
type KernelStats = obs.Stats

// PhaseStats is one pipeline phase's accumulated wall time.
type PhaseStats = obs.PhaseStats

// CounterSet is one set of kernel counters — a single worker's or the
// cross-worker totals.
type CounterSet = obs.CounterSet

// WorkerStats is one worker's counters in a Stats snapshot.
type WorkerStats = obs.WorkerStats

// Dist summarizes a per-worker quantity: min/max/mean and the
// imbalance ratio max/mean (1.0 = perfect balance).
type Dist = obs.Dist

// AccumCounters are the accumulator-side statistics.
type AccumCounters = obs.AccumCounters

// StatsSchema identifies the JSON layout of a Stats document.
const StatsSchema = obs.StatsSchema

// StatsRecorder collects kernel observability data. Attach one via
// Options.Stats and every MxM run under those options records into it;
// Stats() snapshots the accumulated totals at any point. Collection is
// exact (counters are counted, not sampled) and adds a few percent at
// most to small runs; a nil *StatsRecorder in Options disables
// everything at zero cost.
//
// A StatsRecorder may be shared by concurrent multiplications. Each run
// records through its own scope and folds into the totals once, when it
// ends, so the totals stay exact. Snapshots taken with Stats() are
// independent values; subtract two (Stats.Sub) to isolate the activity
// between them, which includes every run that ended in that window.
//
// Recording also labels each pipeline phase for runtime/pprof (label
// key "spgemm_phase") and opens a runtime/trace region per tile batch
// while tracing is active, so CPU profiles and execution traces
// attribute samples to kernel phases with no extra wiring.
type StatsRecorder struct {
	rec *obs.Recorder
}

// NewStatsRecorder returns an empty recorder ready to attach to
// Options.Stats.
func NewStatsRecorder() *StatsRecorder {
	return &StatsRecorder{rec: obs.NewRecorder()}
}

// Stats snapshots everything recorded so far. Nil receivers return a
// zero snapshot.
func (s *StatsRecorder) Stats() KernelStats {
	if s == nil {
		return (*obs.Recorder)(nil).Stats()
	}
	return s.rec.Stats()
}

// Reset discards everything recorded so far. Nil-safe.
func (s *StatsRecorder) Reset() {
	if s != nil {
		s.rec.Reset()
	}
}

// recorder returns the internal recorder (nil for a nil StatsRecorder),
// for Options.config.
func (s *StatsRecorder) recorder() *obs.Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// WriteStatsTable renders the snapshot as an indented human-readable
// block — the layout behind the CLI tools' -stats flag.
func WriteStatsTable(w io.Writer, s KernelStats) {
	s.WriteTable(w)
}

// MarshalStatsJSON encodes the snapshot in the stable StatsSchema JSON
// layout (2-space indent, trailing newline).
func MarshalStatsJSON(s KernelStats) ([]byte, error) {
	return obs.MarshalJSONBytes(s)
}

// ValidateStatsJSON strictly round-trips a StatsSchema document:
// unknown fields, schema mismatches and non-canonical encodings are all
// rejected. Intended for consumers checking files written by the CLI
// tools' -stats-json flag.
func ValidateStatsJSON(data []byte) error {
	return obs.ValidateStatsJSON(data)
}
