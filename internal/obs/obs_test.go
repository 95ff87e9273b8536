package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestNilRecorderNoAllocs is the disabled-path guard: every method on a
// nil Recorder, and on the nil scope it starts, must complete without
// allocating, so threading a recorder through the kernel costs nothing
// when observability is off.
func TestNilRecorderNoAllocs(t *testing.T) {
	var r *Recorder
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if r.Enabled() {
			t.Fatal("nil recorder reports enabled")
		}
		end := r.Span(PhaseExecKernel)
		end()
		s := r.StartRun()
		if s.Enabled() {
			t.Fatal("nil recorder started an enabled scope")
		}
		s.Span(PhaseExecKernel, s.Now())
		s.TileRegion(ctx)()
		_ = s.WorkerSlots(8)
		_ = s.FusedSlots(8)
		s.AddAccum(AccumCounters{MarkerClears: 1})
		s.AddPool(PoolCounters{Hits: 1})
		s.AddFused(FusedCounters{SelectRuns: 1})
		s.AddSched(SchedCounters{Waves: 1})
		s.MarkComplete()
		s.End()
		r.Reset()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f times per call set, want 0", allocs)
	}
}

func TestNilRecorderStats(t *testing.T) {
	var r *Recorder
	s := r.Stats()
	if s.Schema != StatsSchema {
		t.Fatalf("schema = %q, want %q", s.Schema, StatsSchema)
	}
	if s.Runs != 0 || len(s.Phases) != 0 || len(s.Workers) != 0 {
		t.Fatalf("nil recorder stats not empty: %+v", s)
	}
	if s.TileDist.Imbalance != 1 || s.FlopDist.Imbalance != 1 {
		t.Fatalf("empty dist imbalance should be 1, got %+v", s)
	}
}

func TestSpanAccounting(t *testing.T) {
	r := NewRecorder()
	end := r.Span(PhaseExecKernel)
	time.Sleep(2 * time.Millisecond)
	end()
	end = r.Span(PhaseExecKernel)
	end()
	r.Span(PhasePlanRowWork)()
	s := r.Stats()
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %+v, want 2 entries", s.Phases)
	}
	// Pipeline order: plan before exec.
	if s.Phases[0].Phase != "plan.row_work" || s.Phases[1].Phase != "exec.kernel" {
		t.Fatalf("phase order = %+v", s.Phases)
	}
	if s.Phases[1].Count != 2 {
		t.Fatalf("exec.kernel count = %d, want 2", s.Phases[1].Count)
	}
	if s.Phases[1].Millis < 1 {
		t.Fatalf("exec.kernel millis = %v, want >= 1", s.Phases[1].Millis)
	}
}

// recordRun records one completed run through a scope: fill writes its
// counters before the scope ends.
func recordRun(r *Recorder, fill func(s *RunScope)) {
	s := r.StartRun()
	fill(s)
	s.MarkComplete()
	s.End()
}

func TestWorkerSlotsAndDists(t *testing.T) {
	r := NewRecorder()
	s := r.StartRun()
	slots := s.WorkerSlots(3)
	slots[0].Tiles.Store(4)
	slots[0].Flops.Store(400)
	slots[1].Tiles.Store(2)
	slots[1].Flops.Store(100)
	slots[2].Tiles.Store(2)
	slots[2].Flops.Store(100)
	// Growing keeps earlier counts.
	slots = s.WorkerSlots(4)
	slots[3].Tiles.Store(0)
	slots[3].Flops.Store(0)
	s.MarkComplete()
	s.End()
	st := r.Stats()
	if st.Totals.Tiles != 8 || st.Totals.Flops != 600 {
		t.Fatalf("totals = %+v", st.Totals)
	}
	if st.TileDist.Min != 0 || st.TileDist.Max != 4 || st.TileDist.Mean != 2 {
		t.Fatalf("tile dist = %+v", st.TileDist)
	}
	if st.TileDist.Imbalance != 2 {
		t.Fatalf("tile imbalance = %v, want 2", st.TileDist.Imbalance)
	}
	if st.FlopDist.Max != 400 || st.FlopDist.Mean != 150 {
		t.Fatalf("flop dist = %+v", st.FlopDist)
	}
}

func TestResetAndReuse(t *testing.T) {
	r := NewRecorder()
	recordRun(r, func(s *RunScope) { s.WorkerSlots(2)[1].Tiles.Store(7) })
	r.Reset()
	s := r.Stats()
	if s.Runs != 0 || s.Totals.Tiles != 0 {
		t.Fatalf("reset did not clear: %+v", s)
	}
	// Worker entries survive reset (zeroed), so a reused recorder keeps
	// reporting the same worker ids.
	if len(s.Workers) != 2 {
		t.Fatalf("worker slots after reset = %d, want 2", len(s.Workers))
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	recordRun(r, func(s *RunScope) {
		slots := s.WorkerSlots(2)
		slots[0].Tiles.Store(3)
		slots[0].Rows.Store(30)
		slots[0].Flops.Store(900)
		slots[0].CoIterPicks.Store(5)
		slots[0].LinearPicks.Store(7)
		slots[0].Gathered.Store(12)
		slots[1].Tiles.Store(1)
		slots[1].Rows.Store(10)
		slots[1].Flops.Store(300)
		s.Span(PhaseExecKernel, s.Now())
		s.Span(PhaseExecAssemble, s.Now())
		s.AddAccum(AccumCounters{MarkerClears: 2, HashProbes: 40, HashCollisions: 3})
	})

	data, err := MarshalJSONBytes(r.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateStatsJSON(data); err != nil {
		t.Fatalf("round trip: %v\n%s", err, data)
	}
	for _, want := range []string{`"schema"`, `"co_iter_picks"`, `"imbalance"`, `"marker_clears"`, `"exec.kernel"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Fatalf("JSON missing %s:\n%s", want, data)
		}
	}
}

func TestValidateStatsJSONRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"schema":"` + StatsSchema + `","bogus":1}`,
		"wrong schema":  `{"schema":"other/v9"}`,
		"not json":      `]]]`,
	}
	for name, doc := range cases {
		if err := ValidateStatsJSON([]byte(doc)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

// TestValidateStatsJSONRejectsV1 pins the stats/v2 to v5 breaks: a
// document under the v1 to v4 tag, or one carrying v1's recal block,
// v2's chain counters, v3's retry block or v4's run sequence id or wave
// histograms, is rejected rather than silently read as v5.
func TestValidateStatsJSONRejectsV1(t *testing.T) {
	r := NewRecorder()
	recordRun(r, func(s *RunScope) { s.Span(PhaseExecKernel, s.Now()) })
	data, err := MarshalJSONBytes(r.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateStatsJSON(data); err != nil {
		t.Fatalf("v5 document rejected: %v", err)
	}
	cases := map[string]struct{ from, to, wantErr string }{
		"v1 tag":       {StatsSchema, "maskedspgemm/stats/v1", "schema"},
		"recal block":  {`"schema"`, `"recal": {"updates": 1, "kappa_last": 1.5}, "schema"`, "recal"},
		"v2 tag":       {StatsSchema, "maskedspgemm/stats/v2", "schema"},
		"chain counts": {`"select_runs"`, `"chain_runs": 1, "staged_tiles": 1, "select_runs"`, "chain_runs"},
		"v3 tag":       {StatsSchema, "maskedspgemm/stats/v3", "schema"},
		"retry block":  {`"schema"`, `"retry": {"attempts": 2, "retries": 1}, "schema"`, "retry"},
		"v4 tag":       {StatsSchema, "maskedspgemm/stats/v4", "schema"},
		"seq":          {`"runs"`, `"seq": 1, "runs"`, "seq"},
		"wave hist":    {`"barrier_wait_ns"`, `"wave_tiles": [1], "barrier_wait_ns"`, "wave_tiles"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			bad := strings.Replace(string(data), c.from, c.to, 1)
			if bad == string(data) {
				t.Fatalf("%q not found in document", c.from)
			}
			err := ValidateStatsJSON([]byte(bad))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want a mention of %q", err, c.wantErr)
			}
		})
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < numPhases; p++ {
		name := p.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("phase %d has bad/duplicate name %q", p, name)
		}
		if !strings.Contains(name, ".") {
			t.Fatalf("phase name %q not namespaced", name)
		}
		seen[name] = true
	}
	if Phase(-1).String() != "unknown" || Phase(99).String() != "unknown" {
		t.Fatal("out-of-range phases should stringify to unknown")
	}
}
