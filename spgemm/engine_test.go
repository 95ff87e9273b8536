package spgemm_test

import (
	"errors"
	"sync"
	"testing"

	"maskedspgemm/spgemm"
)

// TestEngineEquivalence checks that engine-backed MxM produces results
// bit-identical to the engineless path, warm and cold.
func TestEngineEquivalence(t *testing.T) {
	a := spgemm.RandomGraph("er", 80, 5)
	opts := spgemm.Defaults()
	want, err := spgemm.MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	// Two rounds: the first exercises the pool-miss path, the second the
	// recycled-workspace path.
	for round := 0; round < 2; round++ {
		got, err := spgemm.MxM(a, a, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("round %d: engine-backed MxM differs from engineless", round)
		}
	}
	st := opts.Engine.Stats()
	if st.Hits == 0 {
		t.Errorf("second round should recycle workspaces: %+v", st)
	}
	if st.PlanHits == 0 {
		t.Errorf("second round should hit the plan cache: %+v", st)
	}
}

// TestConcurrentMxMServing repeats one product with MxM on a shared
// engine from many goroutines at once (run with -race) and checks every
// result is bit-identical to the serial product.
func TestConcurrentMxMServing(t *testing.T) {
	a := spgemm.RandomGraph("er", 120, 6)
	opts := spgemm.Defaults()
	want, err := spgemm.MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c, err := spgemm.MxM(a, a, a, opts)
				if err != nil {
					errs[g] = err
					return
				}
				if !c.Equal(want) {
					errs[g] = errors.New("concurrent result differs from serial")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestEnginelessConcurrentMultiplySafe pins that overlapping engineless
// MxM calls on the same operands are safe: each builds and discards its
// own buffers, and every result is bit-identical to the serial product
// (run under -race by `make race`).
func TestEnginelessConcurrentMultiplySafe(t *testing.T) {
	a := spgemm.RandomGraph("er", 200, 8)
	opts := spgemm.Defaults()
	want, err := spgemm.MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				c, err := spgemm.MxM(a, a, a, opts)
				if err != nil {
					t.Errorf("concurrent engineless MxM: %v", err)
					return
				}
				if !c.Equal(want) {
					t.Error("concurrent engineless result differs from serial")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDefaultEngineShared checks the process-wide engine is a stable
// singleton and usable out of the box.
func TestDefaultEngineShared(t *testing.T) {
	if spgemm.DefaultEngine() != spgemm.DefaultEngine() {
		t.Fatal("DefaultEngine must return one shared instance")
	}
	a := spgemm.RandomGraph("er", 40, 4)
	opts := spgemm.Defaults()
	opts.Engine = spgemm.DefaultEngine()
	if _, err := spgemm.MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
}

// TestEngineIdle checks the idle gauge: a fresh engine holds no
// workspace, a pooled multiply leaves the one it released idle, and a
// nil engine reports none.
func TestEngineIdle(t *testing.T) {
	eng := spgemm.NewEngine(spgemm.EngineConfig{})
	if n := eng.Idle(); n != 0 {
		t.Fatalf("fresh engine: Idle = %d, want 0", n)
	}
	a := spgemm.RandomGraph("er", 64, 3)
	opts := spgemm.Defaults()
	opts.Engine = eng
	if _, err := spgemm.MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
	if n := eng.Idle(); n < 1 {
		t.Fatalf("after a pooled multiply: Idle = %d, want >= 1", n)
	}
	var none *spgemm.Engine
	if n := none.Idle(); n != 0 {
		t.Fatalf("nil engine: Idle = %d, want 0", n)
	}
}

// TestEngineStatsInRecorder checks pool counters flow into the public
// stats pipeline when both an Engine and a StatsRecorder are set.
func TestEngineStatsInRecorder(t *testing.T) {
	a := spgemm.RandomGraph("er", 60, 5)
	opts := spgemm.Defaults()
	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	opts.Stats = spgemm.NewStatsRecorder()
	for i := 0; i < 3; i++ {
		if _, err := spgemm.MxM(a, a, a, opts); err != nil {
			t.Fatal(err)
		}
	}
	st := opts.Stats.Stats()
	if st.Pool.Hits+st.Pool.Misses == 0 {
		t.Errorf("recorder saw no pool traffic: %+v", st.Pool)
	}
	if st.Pool.Hits == 0 {
		t.Errorf("warm runs should report pool hits: %+v", st.Pool)
	}
}
