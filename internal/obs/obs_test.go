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
		r.Do(ctx, PhaseExecKernel, func() {})
		r.TileRegion(ctx)()
		r.AddRetry(RetryCounters{Attempts: 1})
		r.AddRecal(RecalCounters{Updates: 1})
		s := r.StartRun()
		if s.Enabled() {
			t.Fatal("nil recorder started an enabled scope")
		}
		s.Span(PhaseExecKernel)()
		s.Do(ctx, PhaseExecKernel, func() {})
		s.TileRegion(ctx)()
		_ = s.WorkerSlots(8)
		s.AddAccum(AccumCounters{MarkerClears: 1})
		s.AddPool(PoolCounters{Hits: 1})
		s.AddFused(FusedCounters{ChainRuns: 1})
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
func recordRun(r *Recorder, fill func(s *RunScope)) Stats {
	s := r.StartRun()
	fill(s)
	s.MarkComplete()
	return s.End()
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
	if run := s.End(); run.Totals != r.Stats().Totals {
		t.Fatalf("run totals %+v differ from the recorder's %+v", run.Totals, r.Stats().Totals)
	}
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

func TestStatsSub(t *testing.T) {
	r := NewRecorder()
	recordRun(r, func(s *RunScope) {
		slots := s.WorkerSlots(2)
		slots[0].Rows.Store(10)
		slots[1].Rows.Store(20)
		s.Span(PhaseExecKernel)()
		s.AddAccum(AccumCounters{HashProbes: 100})
	})
	before := r.Stats()

	recordRun(r, func(s *RunScope) {
		slots := s.WorkerSlots(2)
		slots[0].Rows.Add(5)
		slots[1].Rows.Add(7)
		s.Span(PhaseExecKernel)()
		s.AddAccum(AccumCounters{HashProbes: 50, MarkerClears: 1})
	})

	delta := r.Stats().Sub(before)
	if delta.Runs != 1 {
		t.Fatalf("delta runs = %d", delta.Runs)
	}
	if delta.Totals.Rows != 12 {
		t.Fatalf("delta rows = %d, want 12", delta.Totals.Rows)
	}
	if delta.Accum.HashProbes != 50 || delta.Accum.MarkerClears != 1 {
		t.Fatalf("delta accum = %+v", delta.Accum)
	}
	if len(delta.Phases) != 1 || delta.Phases[0].Count != 1 {
		t.Fatalf("delta phases = %+v", delta.Phases)
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
		s.Span(PhaseExecKernel)()
		s.Span(PhaseExecAssemble)()
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

// TestStatsAdd pins the sum of two recorders' snapshots: runs, phases
// by name in pipeline order, workers by id, and every counter block,
// with Sub undoing Add and KappaLast carried as a gauge.
func TestStatsAdd(t *testing.T) {
	r1, r2 := NewRecorder(), NewRecorder()
	recordRun(r1, func(s *RunScope) {
		s.WorkerSlots(1)[0].Flops.Store(10)
		s.Span(PhaseExecKernel)()
		s.AddAccum(AccumCounters{HashProbes: 4})
	})
	r1.AddRecal(RecalCounters{Updates: 1, KappaLast: 1.5})
	recordRun(r2, func(s *RunScope) {
		w := s.WorkerSlots(2)
		w[0].Flops.Store(1)
		w[1].Flops.Store(2)
		s.Span(PhasePlanRowWork)()
		s.Span(PhaseExecKernel)()
		s.AddSched(SchedCounters{Waves: 3, WaveTiles: [WaveHistBuckets]int64{1: 3}})
	})
	r2.AddRecal(RecalCounters{Updates: 2, KappaLast: 2.5})
	a, b := r1.Stats(), r2.Stats()

	sum := Stats{Schema: StatsSchema}
	sum.Add(a)
	sum.Add(b)
	if sum.Runs != 2 || sum.Totals.Flops != 13 || len(sum.Workers) != 2 || sum.Workers[0].Flops != 11 {
		t.Fatalf("sum runs=%d totals=%+v workers=%+v", sum.Runs, sum.Totals, sum.Workers)
	}
	if len(sum.Phases) != 2 || sum.Phases[0].Phase != "plan.row_work" || sum.Phases[1].Count != 2 {
		t.Fatalf("sum phases = %+v, want pipeline order with exec.kernel counted twice", sum.Phases)
	}
	if sum.Accum.HashProbes != 4 || sum.Sched.Waves != 3 || sum.Sched.WaveTiles[1] != 3 {
		t.Fatalf("sum blocks accum=%+v sched=%+v", sum.Accum, sum.Sched)
	}
	if sum.Recal.Updates != 3 || sum.Recal.KappaLast != 2.5 {
		t.Fatalf("sum recal = %+v, want updates=3 and the last nonzero kappa", sum.Recal)
	}
	back := sum.Sub(b)
	if back.Runs != a.Runs || back.Totals != a.Totals || back.Accum != a.Accum || back.Sched != a.Sched {
		t.Fatalf("(a+b)-b = %+v, want %+v", back, a)
	}
	// Millis are float sums, so (a+b)-b may differ from a in the last bit.
	if len(back.Phases) != 1 || back.Phases[0].Phase != a.Phases[0].Phase || back.Phases[0].Count != 1 {
		t.Fatalf("(a+b)-b phases = %+v, want %+v", back.Phases, a.Phases)
	}
}
