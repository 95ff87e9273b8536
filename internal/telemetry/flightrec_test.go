package telemetry

import (
	"strings"
	"testing"

	"maskedspgemm/internal/obs"
)

// TestFlightRingWrap pins the ring semantics: a full recorder keeps the
// newest capacity events oldest-first, counts overwrites, and its dump's
// sequence numbers expose the gap.
func TestFlightRingWrap(t *testing.T) {
	clk := &testClock{t: 100}
	f := NewFlightRecorder(0, clk.now) // clamps to the 16 minimum
	for i := 0; i < 20; i++ {
		clk.advance(1)
		f.Append(int64(i), obs.EventPhase, obs.PhaseExecKernel, int64(i), 0)
	}
	if got := f.Len(); got != 16 {
		t.Fatalf("Len = %d, want 16", got)
	}
	if got := f.Seq(); got != 20 {
		t.Fatalf("Seq = %d, want 20", got)
	}
	if got := f.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	d := f.BuildDump("forced", "", nil, "")
	if len(d.Events) != 16 {
		t.Fatalf("dump has %d events, want 16", len(d.Events))
	}
	if d.Events[0].Seq != 5 || d.Events[15].Seq != 20 {
		t.Fatalf("dump window [%d,%d], want [5,20]", d.Events[0].Seq, d.Events[15].Seq)
	}
	if d.Dropped != 4 {
		t.Fatalf("dump dropped %d, want 4", d.Dropped)
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].TUnixNano < d.Events[i-1].TUnixNano {
			t.Fatalf("event %d out of time order", i)
		}
	}
}

// TestFlightDumpValidates pins that a built dump round-trips through the
// strict validator, and that each class of corruption is rejected.
func TestFlightDumpValidates(t *testing.T) {
	clk := &testClock{t: 7}
	f := NewFlightRecorder(16, clk.now)
	f.Append(1, obs.EventRunStart, obs.PhaseNone, 0, 0)
	f.Append(1, obs.EventPhase, obs.PhasePlanRowWork, 123, 0)
	f.Append(1, obs.EventRunEnd, obs.PhaseNone, 4, 2)

	d := f.BuildDump("stall", "sched: no tile progress", &FlightStall{
		TimeoutNS: 25e6, Done: 3, Tiles: 64, Stacks: "goroutine 1 [running]:\n...",
	}, "")
	data, err := obs.MarshalJSONBytes(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlightJSON(data); err != nil {
		t.Fatalf("valid dump rejected: %v", err)
	}

	corrupt := func(name, from, to, wantErr string) {
		t.Helper()
		bad := strings.Replace(string(data), from, to, 1)
		if bad == string(data) {
			t.Fatalf("%s: replacement %q not found in dump", name, from)
		}
		err := ValidateFlightJSON([]byte(bad))
		if err == nil {
			t.Fatalf("%s: corrupted dump accepted", name)
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: error %q, want mention of %q", name, err, wantErr)
		}
	}
	corrupt("schema", FlightSchema, "maskedspgemm/flightrec/v9", "schema")
	corrupt("v1 schema", FlightSchema, "maskedspgemm/flightrec/v1", "schema")
	corrupt("v1 snapback kind", `"kind": "run_start"`, `"kind": "snapback"`, "kind")
	corrupt("reason", `"reason": "stall"`, `"reason": "vibes"`, "reason")
	corrupt("kind", `"kind": "run_start"`, `"kind": "warpcore"`, "kind")
	corrupt("seq", `"seq": 2`, `"seq": 1`, "not increasing")
}

// TestFlightEventPhaseOmitted pins that PhaseNone events omit the phase
// field while phased events carry the stable phase name.
func TestFlightEventPhaseOmitted(t *testing.T) {
	clk := &testClock{}
	f := NewFlightRecorder(16, clk.now)
	f.Append(0, obs.EventRetry, obs.PhaseNone, 1, 0)
	f.Append(0, obs.EventPhase, obs.PhaseExecKernel, 1, 0)
	d := f.BuildDump("forced", "", nil, "")
	if d.Events[0].Phase != "" {
		t.Fatalf("PhaseNone event has phase %q, want empty", d.Events[0].Phase)
	}
	if d.Events[1].Phase != obs.PhaseExecKernel.String() {
		t.Fatalf("phased event has phase %q, want %q", d.Events[1].Phase, obs.PhaseExecKernel.String())
	}
}
