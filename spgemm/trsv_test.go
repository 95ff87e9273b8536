package spgemm

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
)

// triMatrix builds a random strictly triangular system with a dense
// nonzero diagonal and locality-skewed off-diagonal fill (near-diagonal
// dependencies are likelier, giving multi-level dependency DAGs).
func triMatrix(t *testing.T, n int, lower bool, seed int64) *Matrix {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr := make([]Triple, 0, 8*n)
	for i := 0; i < n; i++ {
		tr = append(tr, Triple{Row: i, Col: i, Val: float64(r.Intn(7) + 2)})
		for j := 0; j < i; j++ {
			if r.Float64() < 1.2/float64(i-j) {
				e := Triple{Row: i, Col: j, Val: 1 + r.Float64()}
				if !lower {
					e.Row, e.Col = e.Col, e.Row
				}
				tr = append(tr, e)
			}
		}
	}
	m, err := FromTriples(n, n, tr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func rhs(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%17) + 1
	}
	return b
}

func equalVec(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: x[%d] = %v, want %v (bit-identical)", label, i, got[i], want[i])
		}
	}
}

// TestTRSVWavesMatchSerial requires the wave schedule to be
// bit-identical to the serial substitution loop across triangles and
// masking, through the public facade. The schedule policies are looped
// by internal/core's solve tests.
func TestTRSVWavesMatchSerial(t *testing.T) {
	const n = 300
	b := rhs(n)
	mask := make([]int32, 0, n/2)
	for i := int32(1); int(i) < n; i += 2 {
		mask = append(mask, i)
	}
	for _, lower := range []bool{true, false} {
		tri := TriLower
		if !lower {
			tri = TriUpper
		}
		l := triMatrix(t, n, lower, 7)
		serial := Defaults()
		serial.LevelSchedule = LevelSerial
		for _, m := range [][]int32{nil, mask} {
			want, err := TRSVMasked(l, b, tri, m, serial)
			if err != nil {
				t.Fatal(err)
			}
			opts := Defaults()
			opts.LevelSchedule = LevelWaves
			opts.Workers = 4
			opts.Engine = NewEngine(EngineConfig{})
			got, err := TRSVMasked(l, b, tri, m, opts)
			if err != nil {
				t.Fatalf("tri=%v masked=%v: %v", tri, m != nil, err)
			}
			equalVec(t, want, got, "wave solve")
			// Warm run off the cached plan must agree too.
			got2, err := TRSVMasked(l, b, tri, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			equalVec(t, want, got2, "cached wave solve")
			if err := opts.Engine.SelfCheck(); err != nil {
				t.Fatalf("engine self-check: %v", err)
			}
		}
	}
}

// TestTRSVAutoSchedule runs the default LevelAuto path (planner-derived
// coarsening) end to end and checks it agrees with serial.
func TestTRSVAutoSchedule(t *testing.T) {
	l := triMatrix(t, 257, true, 9)
	b := rhs(257)
	serial := Defaults()
	serial.LevelSchedule = LevelSerial
	want, err := TRSV(l, b, TriLower, serial)
	if err != nil {
		t.Fatal(err)
	}
	auto := Defaults()
	auto.Workers = 4
	got, err := TRSV(l, b, TriLower, auto)
	if err != nil {
		t.Fatal(err)
	}
	equalVec(t, want, got, "auto solve")
	// Out-of-mask rows pass b through unchanged.
	masked, err := TRSVMasked(l, b, TriLower, []int32{3, 4, 10}, auto)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range masked {
		if i != 3 && i != 4 && i != 10 && v != b[i] {
			t.Fatalf("out-of-mask row %d rewritten: %v != %v", i, v, b[i])
		}
	}
}

// TestTRSVAutoIsCoreAuto: the facade adds nothing to the solve policy.
// TRSV under the default LevelAuto and core.SolveTriInto with zero
// SolveOpts on the same operand and engine resolve to one cached plan —
// the second call hits what the first stored — and record the same
// schedule shape.
func TestTRSVAutoIsCoreAuto(t *testing.T) {
	// Two wide levels — the first half diagonal-only, each row of the
	// second half with eight dependencies into it — then a 16-row chain:
	// the planner splits both wide levels, merges the chain's 16 levels
	// into one serial wave, and predicts that waves beat one worker. The
	// waves are priced for at most GOMAXPROCS workers, so the test fixes
	// it at two, where the verdict is waves on this fixture.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const half, chain = 1 << 15, 16
	n := 2*half + chain
	tr := make([]Triple, 0, 10*n)
	for i := 0; i < n; i++ {
		switch {
		case i >= 2*half:
			tr = append(tr, Triple{Row: i, Col: i - 1, Val: 1})
		case i >= half:
			for k := 0; k < 8; k++ {
				tr = append(tr, Triple{Row: i, Col: (i*7919 + k*half/8) % half, Val: 1})
			}
		}
		tr = append(tr, Triple{Row: i, Col: i, Val: 9})
	}
	l, err := FromTriples(n, n, tr)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(n)
	eng := NewEngine(EngineConfig{})

	stats := NewStatsRecorder()
	opts := Defaults()
	opts.Workers = 8
	opts.Engine = eng
	opts.Stats = stats
	if _, err := TRSV(l, b, TriLower, opts); err != nil {
		t.Fatal(err)
	}
	facade := stats.Stats().Sched

	rec := obs.NewRecorder()
	cfg := opts.config()
	cfg.Recorder = rec
	prior := eng.Stats()
	dst := make([]float64, n)
	if err := core.SolveTriInto[float64, semiring.PlusTimes[float64]](
		semiring.PlusTimes[float64]{}, dst, l.csr, b, cfg, core.SolveOpts{}); err != nil {
		t.Fatal(err)
	}
	direct := rec.Stats().Sched

	if d := eng.Stats().Sub(prior); d.PlanHits != 1 || d.PlanMisses != 0 {
		t.Errorf("core solve after the facade's: %d plan hits, %d misses, want 1 and 0", d.PlanHits, d.PlanMisses)
	}
	if facade.Levels != direct.Levels || facade.Waves != direct.Waves ||
		facade.SerialWaves != direct.SerialWaves || facade.Barriers != direct.Barriers {
		t.Errorf("facade levels/waves/serial-waves/barriers %d/%d/%d/%d, core %d/%d/%d/%d",
			facade.Levels, facade.Waves, facade.SerialWaves, facade.Barriers,
			direct.Levels, direct.Waves, direct.SerialWaves, direct.Barriers)
	}
	if facade.WaveRuns != 1 || facade.Waves < 2 || facade.Waves == facade.Levels || facade.Barriers == 0 {
		t.Errorf("fixture does not run coarsened waves: %d wave runs, %d levels, %d waves, %d barriers",
			facade.WaveRuns, facade.Levels, facade.Waves, facade.Barriers)
	}
}

// TestTRSVErrors walks the facade error taxonomy for solves.
func TestTRSVErrors(t *testing.T) {
	l := triMatrix(t, 32, true, 3)
	b := rhs(32)
	opts := Defaults()

	// Upper solve on a lower-triangular operand: wrong-side entries.
	if _, err := TRSV(l, b, TriUpper, opts); !errors.Is(err, ErrNotTriangular) {
		t.Fatalf("wrong triangle: %v, want ErrNotTriangular", err)
	}
	// Missing diagonal.
	sing, err := FromTriples(4, 4, []Triple{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {3, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TRSV(sing, rhs(4), TriLower, opts); !errors.Is(err, ErrSingular) {
		t.Fatalf("missing diagonal: %v, want ErrSingular", err)
	}
	// Numerically zero diagonal.
	zero, err := FromTriples(3, 3, []Triple{{0, 0, 1}, {1, 1, 0}, {2, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TRSV(zero, rhs(3), TriLower, opts); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero diagonal: %v, want ErrSingular", err)
	}
	// Shape mismatch.
	if _, err := TRSV(l, rhs(5), TriLower, opts); !errors.Is(err, ErrShape) {
		t.Fatalf("short rhs: %v, want ErrShape", err)
	}
	// Bad enums.
	if _, err := TRSV(l, b, Triangle(9), opts); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad triangle: %v, want ErrConfig", err)
	}
	bad := Defaults()
	bad.LevelSchedule = LevelSchedule(9)
	if _, err := TRSV(l, b, TriLower, bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad level schedule: %v, want ErrConfig", err)
	}
	// Malformed masks are rejected the same way under every schedule.
	for _, ls := range []LevelSchedule{LevelAuto, LevelWaves, LevelSerial} {
		mo := Defaults()
		mo.LevelSchedule = ls
		for _, mask := range [][]int32{{5, 2}, {-1, 2}, {2, 32}, {2, 2}} {
			if _, err := TRSVMasked(l, b, TriLower, mask, mo); !errors.Is(err, ErrInvalidMatrix) {
				t.Fatalf("schedule %d, mask %v: %v, want ErrInvalidMatrix", ls, mask, err)
			}
		}
	}
	// Validated nil operand.
	vo := Defaults()
	vo.ValidateInputs = true
	if _, err := TRSV(nil, b, TriLower, vo); !errors.Is(err, ErrInvalidMatrix) {
		t.Fatalf("nil operand: %v, want ErrInvalidMatrix", err)
	}
}

// TestTRSVWaveBarrierChaos is the seeded chaos-matrix cell for the
// wave-barrier seam: across seeds and fault kinds injected at
// chaos.WaveBarrier, every TRSV outcome must be either a typed error
// matching chaos.ErrInjected or a result bit-identical to the fault-free
// reference — never a silently wrong vector — and the engine pool must
// pass SelfCheck after every injection.
func TestTRSVWaveBarrierChaos(t *testing.T) {
	const n = 300
	l := triMatrix(t, n, true, 21)
	b := rhs(n)
	serial := Defaults()
	serial.LevelSchedule = LevelSerial
	want, err := TRSV(l, b, TriLower, serial)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(EngineConfig{})
	cells := []struct {
		kind  chaos.Kind
		after int64
		delay time.Duration
	}{
		{chaos.KindPanic, 1, 0},
		{chaos.KindPanic, 3, 0},
		{chaos.KindCancel, 2, 0},
		{chaos.KindDelay, 1, 2 * time.Millisecond},
		{chaos.KindDelay, 4, time.Millisecond},
	}
	for _, seed := range []int64{501, 502, 503} {
		for _, cell := range cells {
			sd := chaos.NewSeeded(seed)
			sd.Arm(chaos.WaveBarrier, cell.kind, cell.after, cell.delay)
			opts := Defaults()
			opts.LevelSchedule = LevelWaves
			opts.Workers = 4
			opts.Engine = eng
			opts.chaos = sd
			got, err := TRSV(l, b, TriLower, opts)
			switch {
			case err == nil:
				equalVec(t, want, got, "chaos survivor")
			case errors.Is(err, chaos.ErrInjected):
				if !errors.Is(err, ErrPanic) && !errors.Is(err, ErrCanceled) {
					t.Fatalf("seed=%d kind=%v: untyped injected error %v", seed, cell.kind, err)
				}
			default:
				t.Fatalf("seed=%d kind=%v: non-injected failure %v", seed, cell.kind, err)
			}
			if err := eng.SelfCheck(); err != nil {
				t.Fatalf("seed=%d kind=%v: pool invariants broken: %v", seed, cell.kind, err)
			}
		}
	}
	// The shared engine must still serve clean solves after the storm.
	opts := Defaults()
	opts.LevelSchedule = LevelWaves
	opts.Workers = 4
	opts.Engine = eng
	got, err := TRSV(l, b, TriLower, opts)
	if err != nil {
		t.Fatalf("post-chaos solve: %v", err)
	}
	equalVec(t, want, got, "post-chaos solve")
}
