package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRunScopeIsolatesOverlappingRuns is the regression test for the
// span-misattribution bug: two runs in flight on ONE recorder (a fused
// chain's two products, or concurrent Multiply calls sharing a
// recorder) must each publish a snapshot containing only their own
// spans and counters, while the cumulative totals see the exact sum —
// no double counting, no bleed.
func TestRunScopeIsolatesOverlappingRuns(t *testing.T) {
	r := NewRecorder()

	sa := r.StartRun()
	sb := r.StartRun()
	if sa.Seq() == sb.Seq() {
		t.Fatalf("overlapping scopes share sequence id %d", sa.Seq())
	}

	// Interleave: both scopes record while the other is open.
	doneA := sa.Span(PhaseExecKernel)
	wa := sa.WorkerSlots(1)
	wa[0].Flops.Add(100)
	wa[0].Tiles.Add(4)

	doneB := sb.Span(PhaseExecKernel)
	wb := sb.WorkerSlots(2)
	wb[0].Flops.Add(7)
	wb[1].Flops.Add(13)
	sb.AddAccum(AccumCounters{HashProbes: 50, HashCollisions: 5})
	sb.AddFused(FusedCounters{StreamRuns: 1})
	time.Sleep(time.Millisecond)
	doneB()
	sb.MarkComplete()
	snapB := sb.End()

	if snapB.Seq != 2 || snapB.Runs != 1 {
		t.Fatalf("B snapshot seq=%d runs=%d, want 2/1", snapB.Seq, snapB.Runs)
	}
	if snapB.Totals.Flops != 20 || snapB.Totals.Tiles != 0 {
		t.Fatalf("B totals %+v include A's counters", snapB.Totals)
	}
	if snapB.Accum.HashProbes != 50 || snapB.Fused.StreamRuns != 1 {
		t.Fatalf("B lost its own accum/fused deltas: %+v %+v", snapB.Accum, snapB.Fused)
	}

	// A is still open; LastRun must already serve B's isolated snapshot.
	if last, ok := r.LastRun(); !ok || last.Seq != snapB.Seq || last.Totals.Flops != 20 {
		t.Fatalf("LastRun = %+v ok=%v, want B's snapshot", last.Totals, ok)
	}

	sa.AddPool(PoolCounters{Hits: 3})
	doneA()
	sa.MarkComplete()
	snapA := sa.End()

	if snapA.Seq != 1 || snapA.Runs != 1 {
		t.Fatalf("A snapshot seq=%d runs=%d, want 1/1", snapA.Seq, snapA.Runs)
	}
	if snapA.Totals.Flops != 100 || snapA.Totals.Tiles != 4 {
		t.Fatalf("A totals %+v include B's counters", snapA.Totals)
	}
	if snapA.Accum.HashProbes != 0 || snapA.Fused.StreamRuns != 0 {
		t.Fatalf("A absorbed B's accum/fused deltas: %+v %+v", snapA.Accum, snapA.Fused)
	}
	if snapA.Pool.Hits != 3 {
		t.Fatalf("A lost its pool delta: %+v", snapA.Pool)
	}

	// Cumulative totals are the exact sum of both runs, counted once.
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
}

// TestRunScopeIncompleteRunNotCounted: a run that errors out before
// MarkComplete folds its partial spans into the totals but must not
// inflate the run count or overwrite LastRun.
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

	if last, ok := r.LastRun(); !ok || last.Totals.Flops != 10 {
		t.Fatalf("LastRun = %+v ok=%v, want the completed run's snapshot", last.Totals, ok)
	}
	sum := r.Stats()
	if sum.Runs != 1 {
		t.Fatalf("runs = %d, want 1 (failed run must not count)", sum.Runs)
	}
	if sum.Totals.Flops != 1009 {
		t.Fatalf("totals %+v, want partial work folded in exactly once", sum.Totals)
	}
}

// TestRunScopeRecyclesWorkerBlocks: warm loops must not allocate a
// counter block per run — End returns the blocks to the recorder's
// scope pool and StartRun checks them out again.
func TestRunScopeRecyclesWorkerBlocks(t *testing.T) {
	r := NewRecorder()
	s := r.StartRun()
	s.WorkerSlots(4)
	s.MarkComplete()
	s.End()

	allocs := testing.AllocsPerRun(50, func() {
		s := r.StartRun()
		s.WorkerSlots(4)
		s.MarkComplete()
		s.End()
	})
	// One allocation per run is the *RunScope itself; the worker blocks
	// and snapshot buffers must come from the pool. The snapshot's
	// Workers/Phases slices are built per End, so allow their backing
	// arrays too — the pin is on the padded counter blocks, which
	// dominate (4 cache-line-padded workers ≫ a few slice headers).
	if allocs > 8 {
		t.Fatalf("warm scope cycle allocates %.0f times per run, want the pooled steady state", allocs)
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
					s.Span(PhaseExecKernel)()
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
		r.LastRun()
	}
	if st := r.Stats(); st.Runs != writers*runs || st.Totals.Tiles != writers*runs {
		t.Fatalf("totals: %d runs, %d tiles, want %d each", st.Runs, st.Totals.Tiles, writers*runs)
	}
}
