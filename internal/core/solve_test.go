package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

type plusTimes = semiring.PlusTimes[float64]

// randTriangular generates an n×n triangular matrix with a full
// nonzero diagonal. skew > 0 concentrates off-diagonal entries near
// the diagonal band, producing deep level sets with narrow levels —
// the structure that exercises the coarsener's merge path.
func randTriangular(n int, lower bool, density, skew float64, r *rand.Rand) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](n, n, 0)
	for i := 0; i < n; i++ {
		coo.Add(sparse.Index(i), sparse.Index(i), float64(r.Intn(7)+2))
		for j := 0; j < i; j++ {
			p := density
			if skew > 0 {
				p = density * skew / (skew + float64(i-j))
			}
			if r.Float64() < p {
				if lower {
					coo.Add(sparse.Index(i), sparse.Index(j), float64(r.Intn(9)+1))
				} else {
					coo.Add(sparse.Index(j), sparse.Index(i), float64(r.Intn(9)+1))
				}
			}
		}
	}
	return coo.ToCSR()
}

func randVec(n int, r *rand.Rand) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = r.NormFloat64() * 10
	}
	return b
}

func solveCfg(policy sched.Policy, workers int) Config {
	cfg := DefaultConfig()
	cfg.Schedule = policy
	cfg.Workers = workers
	return cfg
}

// TestSolveTriMatchesSerialBitIdentical verifies every execution path
// is bit-identical to the independent serial reference across both
// triangles, four operand shapes, one, two and eight workers, the three
// modes, the derived coarsening and a tiny grain and merge width
// (multi-tile waves and merged serial waves even on this small system),
// with the claim policy rotating — the paper's determinism contract:
// each row is summed in CSR order by exactly one worker, so neither the
// schedule nor the row order can perturb the floating-point result. The
// shapes differ in what the coarsener meets: deep (dependencies near
// the diagonal: many narrow levels to merge), dense (a near-chain),
// sparse (few wide levels to split) and edge (diagonal-only rows and a
// last row whose only dependency is column 0, the rows the unmasked
// kernel finds its diagonal in by position alone). The random
// fixtures' level-set order differs from their substitution order.
func TestSolveTriMatchesSerialBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	eng := exec.New(exec.Config{})
	policies := []sched.Policy{sched.Static, sched.Dynamic, sched.Guided}
	modes := []SolveMode{SolveAuto, SolveSerial, SolveWaves}
	knobs := []SolveOpts{{}, {WaveGrain: 16, MergeBelow: 3}}
	const n = 300
	shapes := []struct {
		name  string
		build func() *sparse.CSR[float64]
	}{
		{"deep", func() *sparse.CSR[float64] { return randTriangular(n, true, 0.25, 4, r) }},
		{"dense", func() *sparse.CSR[float64] { return randTriangular(n, true, 0.25, 0, r) }},
		{"sparse", func() *sparse.CSR[float64] { return randTriangular(n, true, 0.01, 0, r) }},
		{"edge", func() *sparse.CSR[float64] { return edgeLower(n, r) }},
	}
	for _, tri := range []Tri{Lower, Upper} {
		for _, shape := range shapes {
			l := shape.build()
			if tri == Upper {
				l = sparse.Transpose(l)
			}
			b := randVec(n, r)
			want := make([]float64, n)
			if err := SolveTriSerial(want, l, b, SolveOpts{Tri: tri}); err != nil {
				t.Fatalf("serial reference: %v", err)
			}
			for _, workers := range []int{1, 2, 8} {
				for mi, mode := range modes {
					for ki, k := range knobs {
						policy := policies[(workers+mi+ki)%len(policies)]
						name := fmt.Sprintf("%v/shape=%s/p=%d/mode=%d/grain=%d/policy=%d",
							tri, shape.name, workers, mode, k.WaveGrain, policy)
						t.Run(name, func(t *testing.T) {
							so := k
							so.Tri, so.Mode = tri, mode
							cfg := solveCfg(policy, workers)
							cfg.Engine = eng
							// The second run hits the plan cache; both must match.
							for run := 0; run < 2; run++ {
								got := make([]float64, n)
								if err := SolveTriInto(got, l, b, cfg, so); err != nil {
									t.Fatalf("run %d: %v", run, err)
								}
								for i := range want {
									if got[i] != want[i] {
										t.Fatalf("run %d, row %d: %v != serial %v (bit-identity violated)", run, i, got[i], want[i])
									}
								}
							}
						})
					}
				}
			}
		}
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatalf("engine self-check after solves: %v", err)
	}
}

// TestSolvePlanOrder pins the slot order on a system whose level-set
// order and substitution order differ — rows 0, 1 and 3 have no
// dependencies, row 2 depends on 0, row 4 on 2:
//
//   - with the derived knobs every level is one narrow tile, so the
//     whole solve is one merged wave in substitution order;
//   - with grain and merge width 1, level 0 splits into one tile per
//     row and is a wave of its own in level order, and levels 1 and 2
//     (one row each) merge into one serial wave.
//
// Both plans must solve bit-identically to the reference, on both
// triangles.
func TestSolvePlanOrder(t *testing.T) {
	deps := map[int][]int{2: {0}, 4: {2}}
	n := 5
	coo := sparse.NewCOO[float64](n, n, 0)
	for i := 0; i < n; i++ {
		for _, j := range deps[i] {
			coo.Add(sparse.Index(i), sparse.Index(j), 1)
		}
		coo.Add(sparse.Index(i), sparse.Index(i), float64(i+2))
	}
	l := coo.ToCSR()
	b := []float64{3, 5, 7, 11, 13}
	for _, tc := range []struct {
		so    SolveOpts
		order []sparse.Index
		waves []sched.Wave
	}{
		{SolveOpts{}, []sparse.Index{0, 1, 2, 3, 4}, []sched.Wave{{Lo: 0, Hi: 1}}},
		{SolveOpts{WaveGrain: 1, MergeBelow: 1}, []sparse.Index{0, 1, 3, 2, 4},
			[]sched.Wave{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 4}}},
		// Its transpose as an upper triangle substitutes backward.
		{SolveOpts{Tri: Upper}, []sparse.Index{4, 3, 2, 1, 0}, []sched.Wave{{Lo: 0, Hi: 1}}},
	} {
		stored := l
		if tc.so.Tri == Upper {
			stored = sparse.Transpose(l)
		}
		sp, err := SolvePlanOf(stored, solveCfg(sched.Dynamic, 2), tc.so)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sp.Order) != fmt.Sprint(tc.order) || fmt.Sprint(sp.Waves) != fmt.Sprint(tc.waves) {
			t.Errorf("%+v: order %v waves %v, want %v %v", tc.so, sp.Order, sp.Waves, tc.order, tc.waves)
		}
		want := make([]float64, n)
		if err := SolveTriSerial(want, stored, b, tc.so); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []SolveMode{SolveWaves, SolveSerial} {
			so := tc.so
			so.Mode = mode
			got := make([]float64, n)
			if err := SolveTriInto(got, stored, b, solveCfg(sched.Dynamic, 2), so); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%+v mode %d: %v, want %v", tc.so, mode, got, want)
			}
		}
	}
}

// TestSolveHashSeesEveryWord is the plan key's property test: changing
// any single RowPtr word, the grain, the merge width or the worker count
// changes the hash, whatever lane the word lands in.
func TestSolveHashSeesEveryWord(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	l := randTriangular(13, true, 0.3, 0, r)
	so := SolveOpts{WaveGrain: 64, MergeBelow: 8}
	base := solveHash(l, so, 2)
	for k := range l.RowPtr {
		for _, delta := range []int64{1, -1, 1 << 40} {
			m := *l
			m.RowPtr = append([]int64(nil), l.RowPtr...)
			m.RowPtr[k] += delta
			if solveHash(&m, so, 2) == base {
				t.Errorf("RowPtr[%d] %+d: hash unchanged", k, delta)
			}
		}
	}
	for name, edit := range map[string]SolveOpts{
		"grain": {WaveGrain: 65, MergeBelow: 8},
		"merge": {WaveGrain: 64, MergeBelow: 9},
	} {
		if solveHash(l, edit, 2) == base {
			t.Errorf("%s: hash unchanged", name)
		}
	}
	if solveHash(l, so, 3) == base {
		t.Error("workers: hash unchanged")
	}
}

// TestSolvePredict pins the verdict's arithmetic: serial is the total
// work at the substitution-order cost; a wave costs the longer of its
// heaviest tile and its share per worker at the level-order cost, every
// wave after the first a crossing, the run one spawn; more workers
// shorten only the waves whose work they can split.
func TestSolvePredict(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	// Wave 0: 900 work, heaviest tile 300 → ⌈900/2⌉ = 450 on two workers.
	// Wave 1: 100 work in one tile → 100.
	work, heaviest := []int64{900, 100}, []int64{300, 100}
	if serialNs, _ := solvePredict(1000, work, heaviest, 2); !near(serialNs, solveSubstNsPerNnz*1000.0) {
		t.Errorf("serial = %v, want %v", serialNs, solveSubstNsPerNnz*1000.0)
	}
	for _, tc := range []struct {
		name            string
		total           int64
		work, heaviest  []int64
		workers         int
		critical, fixed float64
	}{
		{"p=2", 1000, work, heaviest, 2, 550, solveCrossingNs + solveSpawnNs},
		// Four workers: wave 0 is bounded by its heaviest tile, 300 > 225.
		{"p=4", 1000, work, heaviest, 4, 400, solveCrossingNs + solveSpawnNs},
		// One wave of one tile pays the spawn and no crossing.
		{"one-wave", 10, []int64{10}, []int64{10}, 2, 10, solveSpawnNs},
	} {
		_, got := solvePredict(tc.total, tc.work, tc.heaviest, tc.workers)
		if want := solveLevelNsPerNnz*tc.critical + tc.fixed; !near(got, want) {
			t.Errorf("%s: waves = %v, want %v", tc.name, got, want)
		}
	}
	// One worker walks every wave whole: never cheaper than serial.
	if s, w := solvePredict(1000, work, heaviest, 1); w <= s {
		t.Errorf("one worker: waves %v beat serial %v", w, s)
	}
}

// TestSolveTriAutoAndSerialModes checks the three modes produce the
// same bits as the forced wave path.
func TestSolveTriAutoAndSerialModes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 256
	l := randTriangular(n, true, 0.2, 3, r)
	b := randVec(n, r)
	want := make([]float64, n)
	if err := SolveTriSerial(want, l, b, SolveOpts{}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []SolveMode{SolveAuto, SolveWaves, SolveSerial} {
		got := make([]float64, n)
		cfg := solveCfg(sched.Dynamic, 4)
		if err := SolveTriInto(got, l, b, cfg, SolveOpts{Mode: mode}); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mode %d row %d: %v != %v", mode, i, got[i], want[i])
			}
		}
	}
}

// TestSolveTriInPlace verifies dst may alias b.
func TestSolveTriInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 128
	l := randTriangular(n, true, 0.3, 0, r)
	b := randVec(n, r)
	want := make([]float64, n)
	if err := SolveTriSerial(want, l, b, SolveOpts{}); err != nil {
		t.Fatal(err)
	}
	x := append([]float64(nil), b...)
	if err := SolveTriInto(x, l, x, solveCfg(sched.Guided, 3), SolveOpts{Mode: SolveWaves}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("row %d: in-place %v != %v", i, x[i], want[i])
		}
	}
}

// TestSolveTriErrors covers the failure taxonomy: singular operands
// (structural and numeric), non-triangular structure, shape mismatches
// and bad options.
func TestSolveTriErrors(t *testing.T) {
	cfg := solveCfg(sched.Dynamic, 2)
	mk := func(rows [][]int, vals [][]float64) *sparse.CSR[float64] {
		n := len(rows)
		coo := sparse.NewCOO[float64](n, n, 0)
		for i := range rows {
			for k, j := range rows[i] {
				coo.Add(sparse.Index(i), sparse.Index(j), vals[i][k])
			}
		}
		return coo.ToCSR()
	}
	b := []float64{1, 2, 3}

	t.Run("missing diagonal", func(t *testing.T) {
		l := mk([][]int{{0}, {0}, {0, 2}}, [][]float64{{1}, {1}, {1, 1}}) // row 1 has no diag
		dst := make([]float64, 3)
		err := SolveTriInto(dst, l, b, cfg, SolveOpts{})
		if !errors.Is(err, ErrSingular) {
			t.Fatalf("got %v, want ErrSingular", err)
		}
		if err := SolveTriSerial(dst, l, b, SolveOpts{}); !errors.Is(err, ErrSingular) {
			t.Fatalf("serial: got %v, want ErrSingular", err)
		}
	})

	t.Run("zero diagonal value", func(t *testing.T) {
		l := mk([][]int{{0}, {1}, {2}}, [][]float64{{1}, {0}, {1}}) // stored zero at (1,1)
		dst := make([]float64, 3)
		for _, mode := range []SolveMode{SolveSerial, SolveWaves} {
			err := SolveTriInto(dst, l, b, cfg, SolveOpts{Mode: mode})
			if !errors.Is(err, ErrSingular) {
				t.Fatalf("mode %d: got %v, want ErrSingular", mode, err)
			}
			if errors.Is(err, ErrPanic) {
				t.Fatalf("mode %d: singular diagonal surfaced as ErrPanic: %v", mode, err)
			}
		}
		if err := SolveTriSerial(dst, l, b, SolveOpts{}); !errors.Is(err, ErrSingular) {
			t.Fatalf("serial: got %v, want ErrSingular", err)
		}
	})

	t.Run("not triangular", func(t *testing.T) {
		l := mk([][]int{{0, 2}, {1}, {2}}, [][]float64{{1, 5}, {1}, {1}}) // (0,2) above diag
		dst := make([]float64, 3)
		err := SolveTriInto(dst, l, b, cfg, SolveOpts{})
		if !errors.Is(err, ErrNotTriangular) {
			t.Fatalf("got %v, want ErrNotTriangular", err)
		}
		if err := SolveTriSerial(dst, l, b, SolveOpts{}); !errors.Is(err, ErrNotTriangular) {
			t.Fatalf("serial: got %v, want ErrNotTriangular", err)
		}
		// The same entry is fine for an upper solve.
		if err := SolveTriInto(dst, l, b, cfg, SolveOpts{Tri: Upper}); err != nil {
			t.Fatalf("upper solve: %v", err)
		}
	})

	t.Run("shape", func(t *testing.T) {
		l := mk([][]int{{0}, {1}, {2}}, [][]float64{{1}, {1}, {1}})
		dst := make([]float64, 3)
		if err := SolveTriInto(dst, l, b[:2], cfg, SolveOpts{}); !errors.Is(err, sparse.ErrShape) {
			t.Fatalf("short b: got %v, want ErrShape", err)
		}
		rect := sparse.NewCSR[float64](3, 4, 0)
		if err := SolveTriInto(dst, rect, b, cfg, SolveOpts{}); !errors.Is(err, sparse.ErrShape) {
			t.Fatalf("rectangular: got %v, want ErrShape", err)
		}
	})

	t.Run("bad options", func(t *testing.T) {
		l := mk([][]int{{0}, {1}, {2}}, [][]float64{{1}, {1}, {1}})
		dst := make([]float64, 3)
		if err := SolveTriInto(dst, l, b, cfg, SolveOpts{Tri: Tri(9)}); !errors.Is(err, ErrConfig) {
			t.Fatalf("bad tri: got %v, want ErrConfig", err)
		}
		if err := SolveTriInto(dst, l, b, cfg, SolveOpts{Mode: SolveMode(9)}); !errors.Is(err, ErrConfig) {
			t.Fatalf("bad mode: got %v, want ErrConfig", err)
		}
	})
}

// TestSolveTriCancellation verifies a pre-canceled context surfaces as
// ErrCanceled from both execution paths.
func TestSolveTriCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := 2048
	l := randTriangular(n, true, 0.02, 2, r)
	b := randVec(n, r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []SolveMode{SolveSerial, SolveWaves} {
		cfg := solveCfg(sched.Dynamic, 4)
		cfg.Context = ctx
		dst := make([]float64, n)
		err := SolveTriInto(dst, l, b, cfg, SolveOpts{Mode: mode})
		if !errors.Is(err, ErrCanceled) && !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %d: got %v, want cancellation", mode, err)
		}
	}
}

// TestSolveTriPlanCache verifies the engine caches level-schedule plans
// per flavor and rebuilds when the structure hash changes.
func TestSolveTriPlanCache(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	n := 128
	l := randTriangular(n, true, 0.2, 0, r)
	b := randVec(n, r)
	eng := exec.New(exec.Config{})
	cfg := solveCfg(sched.Dynamic, 2)
	cfg.Engine = eng
	dst := make([]float64, n)
	run := func(so SolveOpts) {
		t.Helper()
		if err := SolveTriInto(dst, l, b, cfg, so); err != nil {
			t.Fatal(err)
		}
	}
	run(SolveOpts{})
	s0 := eng.Stats()
	if s0.PlanMisses == 0 {
		t.Fatal("first solve should miss the plan cache")
	}
	run(SolveOpts{})
	s1 := eng.Stats()
	if s1.PlanHits <= s0.PlanHits {
		t.Fatalf("second identical solve should hit the plan cache (hits %d -> %d)", s0.PlanHits, s1.PlanHits)
	}
	if s1.PlanMisses != s0.PlanMisses {
		t.Fatalf("second identical solve rebuilt the plan (misses %d -> %d)", s0.PlanMisses, s1.PlanMisses)
	}
	// A different flavor of the same operand is a different plan: a
	// diagonal operand is both triangles.
	coo := sparse.NewCOO[float64](n, n, int64(n))
	for i := 0; i < n; i++ {
		coo.Add(sparse.Index(i), sparse.Index(i), 2)
	}
	diag := coo.ToCSR()
	for _, tri := range []Tri{Lower, Upper} {
		misses := eng.Stats().PlanMisses
		if err := SolveTriInto(dst, diag, b, cfg, SolveOpts{Tri: tri}); err != nil {
			t.Fatal(err)
		}
		if eng.Stats().PlanMisses <= misses {
			t.Fatalf("%v flavor of the diagonal operand should build its own plan", tri)
		}
	}
	s2 := eng.Stats()
	// Different coarsening knobs change the hash.
	run(SolveOpts{WaveGrain: 32, MergeBelow: 2})
	s3 := eng.Stats()
	if s3.PlanMisses <= s2.PlanMisses {
		t.Fatal("different coarsening knobs should build a new plan")
	}
}

// TestSolveTriSchedStats verifies the recorder's sched block: a wave
// run records its plan shape, histograms and barrier traffic.
func TestSolveTriSchedStats(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n := 512
	l := randTriangular(n, true, 0.05, 2, r)
	b := randVec(n, r)
	rec := obs.NewRecorder()
	cfg := solveCfg(sched.Dynamic, 4)
	cfg.Recorder = rec
	dst := make([]float64, n)
	so := SolveOpts{Mode: SolveWaves, WaveGrain: 16, MergeBelow: 4}
	if err := SolveTriInto(dst, l, b, cfg, so); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Sched.WaveRuns != 1 {
		t.Fatalf("WaveRuns = %d, want 1", st.Sched.WaveRuns)
	}
	if st.Sched.Levels <= 1 {
		t.Fatalf("Levels = %d, want > 1 (skewed triangular system has depth)", st.Sched.Levels)
	}
	if st.Sched.Waves < 1 || st.Sched.Waves > st.Sched.Levels {
		t.Fatalf("Waves = %d out of range [1, %d]", st.Sched.Waves, st.Sched.Levels)
	}
	var tiles, flops int64
	for _, v := range st.Sched.WaveTiles {
		tiles += v
	}
	for _, v := range st.Sched.WaveFlops {
		flops += v
	}
	if tiles != st.Sched.Waves || flops != st.Sched.Waves {
		t.Fatalf("histogram mass (tiles %d, flops %d) != waves %d", tiles, flops, st.Sched.Waves)
	}
	// The per-run snapshot carries the same block, and the exec.solve
	// phase span must be present.
	last, ok := rec.LastRun()
	if !ok || last.Sched.WaveRuns != 1 {
		t.Fatalf("LastRun sched block missing: ok=%v %+v", ok, last.Sched)
	}
	found := false
	for _, ph := range last.Phases {
		if ph.Phase == "exec.solve" {
			found = true
		}
	}
	if !found {
		t.Fatalf("exec.solve span missing from phases: %+v", last.Phases)
	}
}

// TestSolveTriSerialRunRecordsNoWaves: a solve that ran serially — by
// the plan's verdict, by the forced mode or on one worker — records its
// levels and its work, and nothing about waves it never ran.
func TestSolveTriSerialRunRecordsNoWaves(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n := 512
	l := randTriangular(n, true, 0.05, 2, r)
	b := randVec(n, r)
	for _, tc := range []struct {
		workers int
		mode    SolveMode
	}{{4, SolveAuto}, {4, SolveSerial}, {1, SolveWaves}} {
		rec := obs.NewRecorder()
		cfg := solveCfg(sched.Dynamic, tc.workers)
		cfg.Recorder = rec
		so := SolveOpts{Mode: tc.mode, WaveGrain: 16, MergeBelow: 4}
		sp, err := SolvePlanOf(l, cfg, so)
		if err != nil {
			t.Fatal(err)
		}
		if tc.mode == SolveAuto && !sp.Serial {
			t.Fatalf("fixture's verdict is waves (predicted serial %.0f ns, waves %.0f ns)", sp.SerialNs, sp.WavesNs)
		}
		dst := make([]float64, n)
		if err := SolveTriInto(dst, l, b, cfg, so); err != nil {
			t.Fatal(err)
		}
		st := rec.Stats()
		if want := (obs.SchedCounters{Levels: int64(sp.Levels)}); st.Sched != want {
			t.Errorf("p=%d mode=%d: sched block %+v, want levels %d only", tc.workers, tc.mode, st.Sched, sp.Levels)
		}
		// The work itself is recorded: one worker, one tile, every row.
		if tot := st.Totals; tot.Tiles != 1 || tot.Rows != int64(n) || tot.Flops != sp.Flops {
			t.Errorf("p=%d mode=%d: totals %+v, want 1 tile, %d rows, %d flops", tc.workers, tc.mode, tot, n, sp.Flops)
		}
	}
}

// edgeLower is a lower-triangular fixture with the rows the unmasked
// kernel finds its diagonal in by position alone: diagonal-only rows
// (every third), a last row whose only off-diagonal entry is column 0,
// and random dependencies elsewhere.
func edgeLower(n int, r *rand.Rand) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](n, n, 0)
	for i := 0; i < n; i++ {
		coo.Add(sparse.Index(i), sparse.Index(i), float64(r.Intn(7)+2))
		switch {
		case i == n-1 && i > 0:
			coo.Add(sparse.Index(i), 0, 3)
		case i%3 != 0:
			for j := 0; j < i; j++ {
				if r.Float64() < 0.2 {
					coo.Add(sparse.Index(i), sparse.Index(j), float64(r.Intn(9)+1))
				}
			}
		}
	}
	return coo.ToCSR()
}

// TestSolveTriLatticeBitIdentical holds SolveTriInto to the per-entry
// reference SolveTriSerial with == on every configuration of the lattice
// {serial, waves} × {Lower, Upper} × {in-place, separate dst}, on
// fixtures of 1, 2 and 97 rows with diagonal-only rows and a row whose
// only off-diagonal entry is column 0. A separate dst starts as NaN, so
// a row the solve forgets to write shows. Each configuration runs twice
// on one engine, cold and on the cached plan.
func TestSolveTriLatticeBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	eng := exec.New(exec.Config{})
	for _, n := range []int{1, 2, 97} {
		lower := edgeLower(n, r)
		b := randVec(n, r)
		for _, tri := range []Tri{Lower, Upper} {
			stored := lower
			if tri == Upper {
				stored = sparse.Transpose(lower)
			}
			ref := SolveOpts{Tri: tri}
			want := make([]float64, n)
			if err := SolveTriSerial(want, stored, b, ref); err != nil {
				t.Fatalf("n=%d %v: reference: %v", n, tri, err)
			}
			for _, mode := range []SolveMode{SolveSerial, SolveWaves} {
				for _, inPlace := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/%v/mode=%d/in-place=%v", n, tri, mode, inPlace)
					so := ref
					so.Mode, so.WaveGrain, so.MergeBelow = mode, 4, 2
					cfg := solveCfg(sched.Dynamic, 2)
					cfg.Engine = eng
					for run := 0; run < 2; run++ {
						got := make([]float64, n)
						src := b
						if inPlace {
							copy(got, b)
							src = got
						} else {
							for i := range got {
								got[i] = math.NaN()
							}
						}
						if err := SolveTriInto(got, stored, src, cfg, so); err != nil {
							t.Fatalf("%s run %d: %v", name, run, err)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s run %d, row %d: %v != reference %v", name, run, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatalf("engine self-check after solves: %v", err)
	}
}

// TestSolveTriEditedOperandBehindCachedPlan: the plan cache keys a solve
// plan on the operand's row structure, not its columns or values, so an
// operand edited in place still hits the plan built before the edit.
// The unmasked kernel trusts that plan's proof of the triangle but still
// checks each row's end entry, so both edits below end in ErrSingular —
// never a silently wrong x — on the serial path and on the wave path,
// for both triangles:
//
//   - zero-diag: a diagonal value set to 0;
//   - moved-diag: the diagonal's column moved one step to the wrong
//     side (rows stay sorted, RowPtr is untouched), so the row's end
//     entry is no longer its diagonal.
func TestSolveTriEditedOperandBehindCachedPlan(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	n := 200
	lower := randTriangular(n, true, 0.1, 2, r)
	b := randVec(n, r)
	row := n / 2
	for _, tri := range []Tri{Lower, Upper} {
		for _, mode := range []SolveMode{SolveSerial, SolveWaves} {
			for _, edit := range []string{"zero-diag", "moved-diag"} {
				name := fmt.Sprintf("%v/mode=%d/%s", tri, mode, edit)
				stored := lower.Clone()
				if tri == Upper {
					stored = sparse.Transpose(lower)
				}
				eng := exec.New(exec.Config{})
				cfg := solveCfg(sched.Dynamic, 2)
				cfg.Engine = eng
				so := SolveOpts{Tri: tri, Mode: mode, WaveGrain: 16, MergeBelow: 3}
				dst := make([]float64, n)
				if err := SolveTriInto(dst, stored, b, cfg, so); err != nil {
					t.Fatalf("%s: solve before the edit: %v", name, err)
				}
				d := stored.RowPtr[row+1] - 1 // the diagonal's slot
				side := sparse.Index(1)       // its wrong side
				if tri == Upper {
					d, side = stored.RowPtr[row], -1
				}
				if stored.ColIdx[d] != sparse.Index(row) {
					t.Fatalf("%s: fixture row %d does not end in its diagonal", name, row)
				}
				if edit == "zero-diag" {
					stored.Val[d] = 0
				} else {
					stored.ColIdx[d] += side
				}
				hits := eng.Stats().PlanHits
				err := SolveTriInto(dst, stored, b, cfg, so)
				if !errors.Is(err, ErrSingular) {
					t.Fatalf("%s: got %v, want ErrSingular", name, err)
				}
				if eng.Stats().PlanHits != hits+1 {
					t.Fatalf("%s: the edited solve did not run on the cached plan", name)
				}
			}
		}
	}
}

// TestSolveSteadyStateAllocs pins the zero-alloc contract of warm
// engine-backed solves on both serial paths: once the plan is cached, a
// solve — hash, plan lookup, substitution — allocates nothing, whether
// one worker runs it, the serial mode is forced, or the plan's verdict
// on two workers is serial.
func TestSolveSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	n := 256
	l := randTriangular(n, true, 0.1, 2, r)
	b := randVec(n, r)
	for _, tc := range []struct {
		name    string
		workers int
		so      SolveOpts
	}{
		{"one-worker", 1, SolveOpts{}},
		{"forced-serial-upper", 4, SolveOpts{Mode: SolveSerial, Tri: Upper}},
		{"serial-verdict", 2, SolveOpts{}},
	} {
		eng := exec.New(exec.Config{})
		cfg := solveCfg(sched.Dynamic, tc.workers)
		cfg.Engine = eng
		dst := make([]float64, n)
		stored := l
		if tc.so.Tri == Upper {
			stored = sparse.Transpose(l)
		}
		// Warm: build and cache the plan.
		if err := SolveTriInto(dst, stored, b, cfg, tc.so); err != nil {
			t.Fatal(err)
		}
		if tc.so.Mode == SolveAuto && tc.workers > 1 {
			sp, err := SolvePlanOf(stored, cfg, tc.so)
			if err != nil || !sp.Serial {
				t.Fatalf("%s: fixture's verdict is not serial (%v)", tc.name, err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := SolveTriInto(dst, stored, b, cfg, tc.so); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm solve allocates %.1f times per run, want 0", tc.name, allocs)
		}
	}
}
