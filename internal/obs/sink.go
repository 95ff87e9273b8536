package obs

import "time"

// This file is the recorder's live-telemetry tap. The Recorder's own
// counters are pull-model: a caller snapshots Stats after the fact. A
// Sink inverts that — every closed phase span, completed run and
// structured event is pushed to it as it happens, so a telemetry layer
// (internal/telemetry) can maintain rolling latency histograms and a
// black-box flight recorder without the kernel knowing it exists.
//
// The contract mirrors the rest of the package: no sink (the common
// case) costs one atomic pointer load per forwarding site, and the
// forwarding paths allocate nothing — the sink implementation must keep
// its receiving methods allocation-free too (they run on the kernel's
// span-close and event paths and are pinned by AllocsPerRun tests).

// EventKind classifies one flight-recorder event. The names are stable
// identifiers used in the flightrec/v2 JSON schema; changing one is a
// schema break.
type EventKind uint8

const (
	// EventNone is the zero, unused kind.
	EventNone EventKind = iota
	// EventRunStart marks a multiply run scope opening.
	EventRunStart
	// EventRunEnd marks a run scope ending; A is the run's total tiles,
	// B its gathered output entries.
	EventRunEnd
	// EventPhase marks a pipeline phase span closing; A is the span's
	// duration in nanoseconds.
	EventPhase
	// EventTileBatch marks tile-loop progress: A is the tile index just
	// finished, B the emitting worker's completed-tile count.
	EventTileBatch
	// EventRetry marks one retry-ladder attempt; A is 1 when the attempt
	// is a retry, B is 1 when it ran degraded.
	EventRetry
	// EventFailure marks an operation whose final attempt failed.
	EventFailure
	// EventChaos marks an injected fault firing; A is the chaos.Point,
	// B the chaos.Kind.
	EventChaos
	// EventStall marks a stall-watchdog verdict observed by the retry
	// ladder; A is the stall count.
	EventStall
	// NumEventKinds bounds the enum.
	NumEventKinds
)

var eventNames = [NumEventKinds]string{
	"none", "run_start", "run_end", "phase", "tile_batch",
	"retry", "failure", "chaos", "stall",
}

func (k EventKind) String() string {
	if k < NumEventKinds {
		return eventNames[k]
	}
	return "unknown"
}

// EventKindByName resolves a stable event-kind identifier back to its
// enum value (false for unknown names) — the decode half of the
// flightrec/v2 schema round-trip.
func EventKindByName(name string) (EventKind, bool) {
	for k, n := range eventNames {
		if n == name {
			return EventKind(k), true
		}
	}
	return EventNone, false
}

// PhaseNone marks an event not tied to a pipeline phase.
const PhaseNone Phase = -1

// PhaseCount is the number of pipeline phases, exported so a sink can
// size per-phase state without reaching into the enum.
const PhaseCount = int(numPhases)

// Sink receives live telemetry pushed from the recorder: phase span
// durations, whole-run latencies, and structured flight-recorder
// events. Implementations must be safe for concurrent use (events
// arrive from worker goroutines) and must not allocate in these
// methods — they run on the kernel's hot record path.
type Sink interface {
	// RecordPhase receives one closed phase span's wall time.
	RecordPhase(p Phase, d time.Duration)
	// RecordRun receives one completed run's start-to-end latency.
	RecordRun(d time.Duration)
	// Event receives one structured event. runSeq is the multiply
	// sequence id (0 when the event is not scoped to a run); the
	// meaning of A and B depends on the kind.
	Event(runSeq int64, k EventKind, p Phase, a, b int64)
}

// SetSink attaches a live telemetry sink to the recorder (nil
// detaches). Safe to call concurrently with recording; the swap is
// atomic and recording sites observe it on their next crossing.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&s)
}

// Sink returns the attached sink (nil when none, or on a nil recorder).
func (r *Recorder) Sink() Sink {
	if r == nil {
		return nil
	}
	if sp := r.sink.Load(); sp != nil {
		return *sp
	}
	return nil
}

// emitPhase forwards one closed phase span to the sink. Internal
// callers guarantee a non-nil receiver; the no-sink fast path is one
// atomic load.
//
//spgemm:hotpath
func (r *Recorder) emitPhase(seq int64, p Phase, d time.Duration) {
	if sp := r.sink.Load(); sp != nil {
		(*sp).RecordPhase(p, d)
		(*sp).Event(seq, EventPhase, p, int64(d), 0)
	}
}

// emitRun forwards one completed run's latency to the sink.
//
//spgemm:hotpath
func (r *Recorder) emitRun(d time.Duration) {
	if sp := r.sink.Load(); sp != nil {
		(*sp).RecordRun(d)
	}
}

// Event forwards a structured flight-recorder event not scoped to a
// run. Nil-safe; with no sink attached it is one nil check and one
// atomic load.
//
//spgemm:hotpath
func (r *Recorder) Event(k EventKind, p Phase, a, b int64) {
	if r == nil {
		return
	}
	r.EventSeq(0, k, p, a, b)
}

// EventSeq forwards a structured event under an explicit multiply
// sequence id. Nil-safe.
//
//spgemm:hotpath
func (r *Recorder) EventSeq(seq int64, k EventKind, p Phase, a, b int64) {
	if r == nil {
		return
	}
	if sp := r.sink.Load(); sp != nil {
		(*sp).Event(seq, k, p, a, b)
	}
}
