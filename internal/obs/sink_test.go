package obs

import (
	"sync"
	"testing"
	"time"
)

// captureSink is a test Sink that records everything pushed to it.
type captureSink struct {
	mu     sync.Mutex
	phases map[Phase]int
	runs   []time.Duration
	events []capturedEvent
}

type capturedEvent struct {
	runSeq int64
	kind   EventKind
	phase  Phase
	a, b   int64
}

func newCaptureSink() *captureSink {
	return &captureSink{phases: make(map[Phase]int)}
}

func (c *captureSink) RecordPhase(p Phase, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.phases[p]++
}

func (c *captureSink) RecordRun(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs = append(c.runs, d)
}

func (c *captureSink) Event(runSeq int64, k EventKind, p Phase, a, b int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, capturedEvent{runSeq, k, p, a, b})
}

func (c *captureSink) kinds() map[EventKind]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[EventKind]int)
	for _, e := range c.events {
		out[e.kind]++
	}
	return out
}

// TestSinkReceivesSpansAndRuns pins the push path: an attached sink sees
// every recorder-level and scope-level span close, and completed runs.
func TestSinkReceivesSpansAndRuns(t *testing.T) {
	r := NewRecorder()
	sink := newCaptureSink()
	r.SetSink(sink)

	r.Span(PhasePlanRowWork)()

	scope := r.StartRun()
	scope.Span(PhaseExecKernel)()
	scope.Event(EventTileBatch, PhaseExecKernel, 1, 32)
	scope.MarkComplete()
	scope.End()

	if sink.phases[PhasePlanRowWork] != 1 || sink.phases[PhaseExecKernel] != 1 {
		t.Fatalf("sink phases = %v, want one span each for row_work and kernel", sink.phases)
	}
	if len(sink.runs) != 1 {
		t.Fatalf("sink saw %d run latencies, want 1", len(sink.runs))
	}
	kinds := sink.kinds()
	for _, want := range []EventKind{EventRunStart, EventPhase, EventTileBatch, EventRunEnd} {
		if kinds[want] == 0 {
			t.Fatalf("sink missing %s event (have %v)", want, kinds)
		}
	}
	// Scoped events carry the run's multiply sequence id.
	for _, e := range sink.events {
		if e.kind == EventTileBatch && e.runSeq != scope.Seq() {
			t.Fatalf("tile batch carries runSeq %d, want %d", e.runSeq, scope.Seq())
		}
	}
}

// TestSinkIncompleteRunEmitsNoLatency pins that an abandoned scope (no
// MarkComplete — the error path) emits no run latency to the sink.
func TestSinkIncompleteRunEmitsNoLatency(t *testing.T) {
	r := NewRecorder()
	sink := newCaptureSink()
	r.SetSink(sink)
	scope := r.StartRun()
	scope.End()
	if len(sink.runs) != 0 {
		t.Fatalf("abandoned run pushed %d latencies to the sink", len(sink.runs))
	}
}

// TestSinkCounterFoldEvents pins the event emissions from AddRetry:
// retries, stalls and failures become live events.
func TestSinkCounterFoldEvents(t *testing.T) {
	r := NewRecorder()
	sink := newCaptureSink()
	r.SetSink(sink)
	r.AddRetry(RetryCounters{Attempts: 2, Retries: 1, Stalls: 1})
	r.AddRetry(RetryCounters{Failures: 1})
	kinds := sink.kinds()
	if kinds[EventRetry] != 1 || kinds[EventStall] != 1 || kinds[EventFailure] != 1 {
		t.Fatalf("counter-fold events = %v, want one each of retry/stall/failure", kinds)
	}
}

// TestSinkDetach pins SetSink(nil): a detached sink stops receiving, and
// the recorder keeps working.
func TestSinkDetach(t *testing.T) {
	r := NewRecorder()
	sink := newCaptureSink()
	r.SetSink(sink)
	r.Span(PhaseExecKernel)()
	r.SetSink(nil)
	r.Span(PhaseExecKernel)()
	if sink.phases[PhaseExecKernel] != 1 {
		t.Fatalf("sink saw %d spans, want 1 (one before detach)", sink.phases[PhaseExecKernel])
	}
	if got := r.Stats().Phases[0].Count; got != 2 {
		t.Fatalf("recorder counted %d spans, want 2 regardless of sink", got)
	}
	if r.Sink() != nil {
		t.Fatal("Sink() should be nil after detach")
	}
}

// TestNilRecorderSinkSafe pins the nil conventions on every sink-path
// entry point.
func TestNilRecorderSinkSafe(t *testing.T) {
	var r *Recorder
	r.SetSink(newCaptureSink())
	if r.Sink() != nil {
		t.Fatal("nil recorder Sink() should be nil")
	}
	r.Event(EventPhase, PhaseExecKernel, 0, 0)
	r.EventSeq(1, EventPhase, PhaseExecKernel, 0, 0)
	var s *RunScope
	s.Event(EventPhase, PhaseExecKernel, 0, 0)
}

// TestEventKindNames pins the stable identifiers: every kind has a
// distinct non-numeric name and round-trips through EventKindByName —
// the flight-dump schema depends on these strings.
func TestEventKindNames(t *testing.T) {
	seen := make(map[string]bool)
	for k := EventNone; k < NumEventKinds; k++ {
		name := k.String()
		if name == "" || seen[name] {
			t.Fatalf("kind %d has empty or duplicate name %q", k, name)
		}
		seen[name] = true
		got, ok := EventKindByName(name)
		if !ok || got != k {
			t.Fatalf("EventKindByName(%q) = %v/%v, want %v", name, got, ok, k)
		}
	}
	if _, ok := EventKindByName("definitely-not-a-kind"); ok {
		t.Fatal("unknown name resolved to a kind")
	}
}
