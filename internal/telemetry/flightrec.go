package telemetry

import (
	"fmt"
	"sync"

	"maskedspgemm/internal/obs"
)

// FlightSchema identifies the JSON layout of a flight-recorder dump.
// Bump only on breaking changes; additive fields keep the tag.
const FlightSchema = "maskedspgemm/flightrec/v2"

// flightEvent is one ring slot: a fixed-size value struct so Append
// never allocates. Field meanings mirror obs.Sink.Event.
type flightEvent struct {
	seq    int64 // global append sequence, monotonic
	t      int64 // wall time, unix nanos
	runSeq int64 // multiply sequence id, 0 when unscoped
	kind   obs.EventKind
	phase  int8 // obs.Phase, -1 for PhaseNone
	a, b   int64
}

// FlightRecorder is a fixed-capacity ring buffer of structured events —
// the black box. The kernel appends phase transitions, tile-batch
// progress, retry-ladder steps and chaos injections as they happen;
// when a stall, panic or retry exhaustion fires, the ring holds the
// last capacity events leading up to it, and Dump serializes them with
// the failure's stacks into a self-validating JSON document.
//
// Append is allocation-free: a short mutex hold and value stores into
// preallocated slots. A mutex (not atomics) keeps slot writes and the
// head index coherent; the hold is a few stores, far below the cost of
// the span the event annotates.
type FlightRecorder struct {
	mu      sync.Mutex
	events  []flightEvent
	head    int   // next slot to write
	size    int   // occupied slots, ≤ len(events)
	seq     int64 // total appends ever
	dropped int64 // appends that overwrote an unread slot
	now     func() int64
}

// NewFlightRecorder returns a ring of the given capacity (minimum 16).
// now supplies wall time in unix nanoseconds.
func NewFlightRecorder(capacity int, now func() int64) *FlightRecorder {
	if capacity < 16 {
		capacity = 16
	}
	return &FlightRecorder{events: make([]flightEvent, capacity), now: now}
}

// Append records one event, overwriting the oldest when full.
//
//spgemm:hotpath
func (f *FlightRecorder) Append(runSeq int64, k obs.EventKind, p obs.Phase, a, b int64) {
	t := f.now()
	f.mu.Lock()
	f.seq++
	f.events[f.head] = flightEvent{
		seq: f.seq, t: t, runSeq: runSeq, kind: k, phase: int8(p), a: a, b: b,
	}
	f.head++
	if f.head == len(f.events) {
		f.head = 0
	}
	if f.size < len(f.events) {
		f.size++
	} else {
		f.dropped++
	}
	f.mu.Unlock()
}

// Len reports the number of retained events.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Seq reports the total number of events ever appended.
func (f *FlightRecorder) Seq() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Dropped reports how many events were overwritten before a dump.
func (f *FlightRecorder) Dropped() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// snapshot copies the retained events oldest-first.
func (f *FlightRecorder) snapshot() (events []flightEvent, dropped int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	events = make([]flightEvent, 0, f.size)
	start := f.head - f.size
	if start < 0 {
		start += len(f.events)
	}
	for i := 0; i < f.size; i++ {
		events = append(events, f.events[(start+i)%len(f.events)])
	}
	return events, f.dropped
}

// FlightEvent is one event in a dump document.
type FlightEvent struct {
	// Seq is the recorder-global append sequence (strictly increasing
	// within a dump; gaps mean events were overwritten between them).
	Seq int64 `json:"seq"`
	// TUnixNano is the event's wall time.
	TUnixNano int64 `json:"t_unix_nano"`
	// RunSeq is the multiply sequence id the event belongs to (0 when
	// not scoped to a run).
	RunSeq int64 `json:"run_seq,omitempty"`
	// Kind is the stable event-kind identifier (obs.EventKind.String).
	Kind string `json:"kind"`
	// Phase is the pipeline phase identifier, omitted for PhaseNone.
	Phase string `json:"phase,omitempty"`
	// A and B are the kind-dependent payload values.
	A int64 `json:"a,omitempty"`
	B int64 `json:"b,omitempty"`
}

// FlightStall carries the stall watchdog's verdict into the dump.
type FlightStall struct {
	// TimeoutNS is the stall threshold that fired.
	TimeoutNS int64 `json:"timeout_ns"`
	// Done and Tiles are the scheduler's progress at the verdict.
	Done  int64 `json:"done"`
	Tiles int64 `json:"tiles"`
	// Stacks is the all-goroutine stack dump taken at the verdict.
	Stacks string `json:"stacks"`
}

// FlightDump is the flightrec/v2 document: the failure that triggered
// the dump plus the event window leading up to it.
type FlightDump struct {
	// Schema is always FlightSchema.
	Schema string `json:"schema"`
	// DumpedAtUnixNano is when the dump was taken.
	DumpedAtUnixNano int64 `json:"dumped_at_unix_nano"`
	// Reason classifies the trigger: "stall", "panic", "retry-exhausted"
	// or "forced" (operator-requested via /flight).
	Reason string `json:"reason"`
	// Error is the triggering error's text ("" for forced dumps).
	Error string `json:"error,omitempty"`
	// Stall is present when the trigger carried a sched.StallError.
	Stall *FlightStall `json:"stall,omitempty"`
	// PanicStack is the recovered panic's stack when the trigger was a
	// contained panic that recorded one.
	PanicStack string `json:"panic_stack,omitempty"`
	// Dropped counts events overwritten before the dump (the ring was
	// smaller than the event stream).
	Dropped int64 `json:"dropped"`
	// Events is the retained window, oldest first.
	Events []FlightEvent `json:"events"`
}

// BuildDump renders the current ring as a dump document.
func (f *FlightRecorder) BuildDump(reason string, errText string, stall *FlightStall, panicStack string) FlightDump {
	events, dropped := f.snapshot()
	d := FlightDump{
		Schema:           FlightSchema,
		DumpedAtUnixNano: f.now(),
		Reason:           reason,
		Error:            errText,
		Stall:            stall,
		PanicStack:       panicStack,
		Dropped:          dropped,
		Events:           make([]FlightEvent, 0, len(events)),
	}
	for _, e := range events {
		fe := FlightEvent{
			Seq:       e.seq,
			TUnixNano: e.t,
			RunSeq:    e.runSeq,
			Kind:      e.kind.String(),
			A:         e.a,
			B:         e.b,
		}
		if p := obs.Phase(e.phase); p != obs.PhaseNone {
			fe.Phase = p.String()
		}
		d.Events = append(d.Events, fe)
	}
	return d
}

// ValidateFlightJSON checks that data is a schema-conforming
// flightrec/v2 document: strict round-trip, the schema tag, known event
// kinds, and strictly increasing event sequence numbers.
func ValidateFlightJSON(data []byte) error {
	var d FlightDump
	if err := obs.RoundTrip(data, &d); err != nil {
		return err
	}
	if d.Schema != FlightSchema {
		return fmt.Errorf("telemetry: schema %q, want %q", d.Schema, FlightSchema)
	}
	switch d.Reason {
	case "stall", "panic", "retry-exhausted", "forced":
	default:
		return fmt.Errorf("telemetry: unknown dump reason %q", d.Reason)
	}
	var prev int64
	for i, e := range d.Events {
		if _, ok := obs.EventKindByName(e.Kind); !ok {
			return fmt.Errorf("telemetry: event %d has unknown kind %q", i, e.Kind)
		}
		if e.Seq <= prev {
			return fmt.Errorf("telemetry: event %d sequence %d not increasing (prev %d)", i, e.Seq, prev)
		}
		prev = e.Seq
	}
	return nil
}
