package spgemm

import (
	"reflect"
	"sync"
	"testing"

	"maskedspgemm/internal/obs"
)

// TestStatsRecorderOverlappingRunsFoldExactly runs recorded products on
// one StatsRecorder and one Engine from several goroutines at once: a
// flat MxM, a streamed triangle count and a wave-scheduled solve. Every
// run writes a scope of its own and folds it into the totals when it
// ends, so the totals are exactly n times one round's Runs, Totals,
// Fused and Sched, wall times aside. Accumulator and pool counters are
// not compared: probes depend on which rows share an accumulator, and
// pool traffic on which run checks out which workspace.
func TestStatsRecorderOverlappingRunsFoldExactly(t *testing.T) {
	const n = 4
	a := RandomGraph("rmat", 256, 5)
	l := triMatrix(t, 512, true, 23)
	b := rhs(512)
	opts := Defaults()
	opts.Workers = 2
	opts.LevelSchedule = LevelWaves
	opts.Engine = NewEngine(EngineConfig{})
	opts.Stats = NewStatsRecorder()
	round := func() error {
		if _, err := MxM(a, a, a, opts); err != nil {
			return err
		}
		if _, err := TriangleCount(a, opts); err != nil {
			return err
		}
		_, err := TRSV(l, b, TriLower, opts)
		return err
	}
	// folded is the part of a snapshot that must scale with the runs.
	type folded struct {
		Runs   int64
		Totals CounterSet
		Sched  obs.SchedCounters
	}
	snapshot := func() folded {
		st := opts.Stats.Stats()
		st.Sched.BarrierWaitNs = 0
		return folded{st.Runs, st.Totals, st.Sched}
	}
	if err := round(); err != nil {
		t.Fatal(err)
	}
	opts.Stats.Reset()
	if err := round(); err != nil {
		t.Fatal(err)
	}
	one := snapshot()
	if one.Runs != 3 || one.Sched.WaveRuns != 1 {
		t.Fatalf("one round recorded %+v, want three runs: a wave solve among them", one)
	}

	opts.Stats.Reset()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := round(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := snapshot(), scaled(one, n); got != want {
		t.Fatalf("%d overlapping rounds folded to\n%+v\nwant %d × one round =\n%+v", n, got, n, want)
	}
}

// scaled returns v with every int64 field, nested ones included,
// multiplied by k.
func scaled[V any](v V, k int64) V {
	var scale func(reflect.Value)
	scale = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Struct:
			for i := range f.NumField() {
				scale(f.Field(i))
			}
		case reflect.Int64:
			f.SetInt(k * f.Int())
		}
	}
	scale(reflect.ValueOf(&v).Elem())
	return v
}
