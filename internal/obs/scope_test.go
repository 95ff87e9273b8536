package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRunScopeFoldsOverlappingRuns: two runs in flight on ONE recorder
// (concurrent Multiply calls sharing a recorder) each write their own
// scope, and the cumulative totals see the exact sum once both end — no
// double counting, and nothing until a scope ends.
func TestRunScopeFoldsOverlappingRuns(t *testing.T) {
	r := NewRecorder()

	sa := r.StartRun()
	sb := r.StartRun()
	if sa == sb {
		t.Fatal("overlapping runs share a scope")
	}

	// Interleave: both scopes record while the other is open.
	startA := sa.Now()
	wa := sa.WorkerSlots(1)
	wa[0].Flops.Add(100)
	wa[0].Tiles.Add(4)

	startB := sb.Now()
	wb := sb.WorkerSlots(2)
	wb[0].Flops.Add(7)
	wb[1].Flops.Add(13)
	sb.AddAccum(AccumCounters{HashProbes: 50, HashCollisions: 5})
	sb.AddFused(FusedCounters{StreamRuns: 1})
	time.Sleep(time.Millisecond)
	sb.Span(PhaseExecKernel, startB)
	sb.MarkComplete()
	sb.End()

	if st := r.Stats(); st.Runs != 1 || st.Totals.Flops != 20 || st.Totals.Tiles != 0 || st.Accum.HashProbes != 50 {
		t.Fatalf("after B ended: runs=%d totals=%+v accum=%+v, want B's alone", st.Runs, st.Totals, st.Accum)
	}

	sa.AddPool(PoolCounters{Hits: 3})
	sa.Span(PhaseExecKernel, startA)
	sa.MarkComplete()
	sa.End()

	sum := r.Stats()
	if sum.Runs != 2 {
		t.Fatalf("cumulative runs = %d, want 2", sum.Runs)
	}
	if sum.Totals.Flops != 120 || sum.Totals.Tiles != 4 {
		t.Fatalf("cumulative totals %+v, want the sum of both runs", sum.Totals)
	}
	if sum.Accum.HashProbes != 50 || sum.Pool.Hits != 3 || sum.Fused.StreamRuns != 1 {
		t.Fatalf("cumulative deltas folded wrong: %+v %+v %+v", sum.Accum, sum.Pool, sum.Fused)
	}
	if len(sum.Phases) != 1 || sum.Phases[0].Count != 2 || sum.Phases[0].Millis < 1 {
		t.Fatalf("cumulative phases %+v, want both kernel spans", sum.Phases)
	}

	// An ended scope comes back zeroed: the next run starts from nothing.
	s := r.StartRun()
	if s != sa && s != sb {
		t.Fatal("StartRun did not reuse an ended scope")
	}
	s.FusedSlots(1)[0].StreamRuns = 9
	s.End()
	s = r.StartRun()
	for w, slots := 0, s.WorkerSlots(2); w < len(slots); w++ {
		if c := slots[w].load(); c != (CounterSet{}) {
			t.Fatalf("reused scope kept worker %d's counters %+v", w, c)
		}
	}
	if f := s.FusedSlots(1)[0]; f != (FusedCounters{}) {
		t.Fatalf("reused scope kept fused scratch %+v", f)
	}
	s.End()
	if st := r.Stats(); st.Runs != 2 || st.Totals != sum.Totals || st.Accum != sum.Accum {
		t.Fatalf("an empty reused scope changed the totals: %+v", st)
	}
}

// TestRunScopeIncompleteRunNotCounted: a run that errors out before
// MarkComplete folds its partial work into the totals but must not
// inflate the run count.
func TestRunScopeIncompleteRunNotCounted(t *testing.T) {
	r := NewRecorder()

	ok1 := r.StartRun()
	w := ok1.WorkerSlots(1)
	w[0].Flops.Add(10)
	ok1.MarkComplete()
	ok1.End()

	failed := r.StartRun()
	fw := failed.WorkerSlots(1)
	fw[0].Flops.Add(999)
	failed.End() // no MarkComplete: the kernel errored mid-pipeline

	sum := r.Stats()
	if sum.Runs != 1 {
		t.Fatalf("runs = %d, want 1 (failed run must not count)", sum.Runs)
	}
	if sum.Totals.Flops != 1009 {
		t.Fatalf("totals %+v, want partial work folded in exactly once", sum.Totals)
	}
}

// TestRunScopeWarmCycleAllocatesNothing: End returns the scope, its
// counter blocks and its scratch to the recorder, and StartRun checks
// them out again, so a warm run's recording allocates nothing.
func TestRunScopeWarmCycleAllocatesNothing(t *testing.T) {
	r := NewRecorder()
	cycle := func() {
		s := r.StartRun()
		start := s.Now()
		s.WorkerSlots(4)[3].Tiles.Add(1)
		s.FusedSlots(4)[3].StreamRuns++
		s.AddAccum(AccumCounters{HashProbes: 1})
		s.Span(PhaseExecKernel, start)
		s.MarkComplete()
		s.End()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm scope cycle allocates %.0f times per run, want 0", allocs)
	}
}

// TestStatsReadDuringRuns reads the totals while runs on the same
// recorder end on other goroutines, the way a caller polls a shared
// StatsRecorder. Under the race detector (make race) a snapshot or fold
// that skips the recorder's mutex fails here; the final totals must
// count every run exactly once.
func TestStatsReadDuringRuns(t *testing.T) {
	const writers, runs = 2, 200
	r := NewRecorder()
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				recordRun(r, func(s *RunScope) {
					s.WorkerSlots(1)[0].Tiles.Add(1)
					s.Span(PhaseExecKernel, s.Now())
				})
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if st := r.Stats(); st.Totals.Tiles != st.Runs {
			t.Fatalf("snapshot mid-run: %d tiles over %d runs, want one per run", st.Totals.Tiles, st.Runs)
		}
	}
	if st := r.Stats(); st.Runs != writers*runs || st.Totals.Tiles != writers*runs {
		t.Fatalf("totals: %d runs, %d tiles, want %d each", st.Runs, st.Totals.Tiles, writers*runs)
	}
}
