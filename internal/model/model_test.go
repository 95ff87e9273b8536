package model

import (
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Test-scale versions of the benchmark corpus families (kept local to
// avoid an import cycle with internal/bench, which imports this
// package).
var testFamilies = map[string]func() *sparse.CSR[float64]{
	"circuit": func() *sparse.CSR[float64] { return graphgen.Circuit(937, 3, 0.6, 4, 117, 0xC1AC) },
	"road":    func() *sparse.CSR[float64] { return graphgen.RoadNetwork(57, 50, 0.95, 0x6A9) },
	"social":  func() *sparse.CSR[float64] { return graphgen.RMAT(9, 20, 0.57, 0.19, 0.19, 0x0870) },
	"web":     func() *sparse.CSR[float64] { return graphgen.WebGraph(1250, 14, 0.6, 0xA2AB1C) },
	"er":      func() *sparse.CSR[float64] { return graphgen.ErdosRenyi(600, 2400, 7) },
}

func TestExtractFeatures(t *testing.T) {
	a := graphgen.ErdosRenyi(200, 800, 3)
	f, err := Extract(a, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if f.MaskNNZ != a.NNZ() || f.Rows != 200 {
		t.Errorf("features wrong: %+v", f)
	}
	if f.DegreeSkew < 1 {
		t.Errorf("skew %v < 1", f.DegreeSkew)
	}
	if f.MaskDensity <= 0 || f.MaskDensity > 1 {
		t.Errorf("density %v out of range", f.MaskDensity)
	}
	if f.CoIterSpeedup < 1 {
		t.Errorf("predicted speedup %v < 1 at κ=1", f.CoIterSpeedup)
	}
}

func TestPredictOnCorpusFamilies(t *testing.T) {
	// Circuit: the mask is far sparser than the products; the model must
	// choose the hybrid space (the co-iteration rescue of Fig. 14d).
	a := testFamilies["circuit"]()
	cfg, f, err := PredictConfig(a, a, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Iteration != core.Hybrid {
		t.Errorf("circuit: predicted %v, want Hybrid (speedup model says %.2fx)",
			cfg.Iteration, f.CoIterSpeedup)
	}

	// Road: flat degrees, co-iteration is ~neutral (Fig. 14a); either
	// space is acceptable but the config must be valid and the tile
	// count modest for the small row count.
	road := testFamilies["road"]()
	cfg, f, err = PredictConfig(road, road, road, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tiles > 2048 {
		t.Errorf("road: %d tiles exceeds the recommended cap", cfg.Tiles)
	}

	// The accumulator is the planner's to derive, window included.
	if cfg.Accumulator != accum.AutoKind {
		t.Errorf("road: predicted %v, want Auto", cfg.Accumulator)
	}
	// Flat degrees: every row spans a sliver of the dimension, so a
	// window that wide holds them all.
	if l := PredictAccumulator(f, 32); l.String() != "Window128" {
		t.Errorf("road: predicted accumulator %v, want Window128", l)
	}

	// Social hubs: mask rows reach across the dimension, so the dense
	// state is no bigger than the hash table.
	social := testFamilies["social"]()
	if _, f, err = PredictConfig(social, social, social, 2); err != nil {
		t.Fatal(err)
	}
	if l := PredictAccumulator(f, 32); l.String() != "Dense" {
		t.Errorf("social: predicted accumulator %v, want Dense", l)
	}
}

// TestPredictedAccumulatorIsThePlanners is the differential test of the
// accumulator choice: on every test family, a hypersparse operand and a
// random wide one, the layout PredictAccumulator derives from the
// features is the one the planner derives from its plan
// (core.AccumulatorOf), and a run under the default configuration
// behaves as that layout does — a hash run probes its table, a window
// that spills counts spilled rows, a dense run does neither.
func TestPredictedAccumulatorIsThePlanners(t *testing.T) {
	families := map[string]func() *sparse.CSR[float64]{"hypersparse": hypersparse, "wide": wideRandom}
	for name, build := range testFamilies {
		families[name] = build
	}
	seen := map[accum.Kind]int{}
	for name, build := range families {
		a := build()
		m, b := a, a
		if name == "wide" {
			// M ⊙ (A × B) with M and B 80 × 40 000 and A 80 × 80.
			a = graphgen.ErdosRenyi(80, 400, 11)
		}
		_, f, err := PredictConfig(m, a, b, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := PredictAccumulator(f, 32)
		if got, err := core.AccumulatorOf(m, a, b, core.DefaultConfig()); err != nil || got != want {
			t.Errorf("%s: PredictAccumulator says %v, the planner derives %v (%v)", name, want, got, err)
		}
		run := core.DefaultConfig()
		run.Recorder = obs.NewRecorder()
		if _, err := core.MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, m, a, b, run); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := run.Recorder.Stats().Accum
		spilled, probed := st.SpilledRows > 0, st.HashProbes > 0
		if spilled != (want.Kind == accum.DenseKind && want.RowCap > 0) || probed != (want.Kind == accum.HashKind || spilled) {
			t.Errorf("%s: predicted %v, the run spilled %d rows and probed %d times", name, want, st.SpilledRows, st.HashProbes)
		}
		kind := want.Kind
		if want.Window > 0 {
			kind = accum.AutoKind // stands for "a window" in the tally
		}
		seen[kind]++
	}
	if seen[accum.DenseKind] == 0 || seen[accum.HashKind] == 0 || seen[accum.AutoKind] == 0 {
		t.Errorf("families exercise only part of the rule (full width, window, hash): %v", seen)
	}
}

// wideRandom is 80 rows of ~6 random entries over 40 000 columns: rows
// far wider than any window the budget allows, so it derives hash.
func wideRandom() *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](80, 40000, 480)
	for i := range 80 {
		for k := range 6 {
			coo.Add(sparse.Index(i), sparse.Index((i*7919+k*6007)%40000), 1)
		}
	}
	return coo.ToCSR()
}

// hypersparse is a 2²⁴-column operand of four entries.
func hypersparse() *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](1<<24, 1<<24, 4)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(70000, 90000, 1)
	coo.Add(90000, 70000, 1)
	return coo.ToCSR()
}

func TestPredictLargeSparse(t *testing.T) {
	// Large dimension with thin mask rows, each spanning one column: a
	// one-slot window, not a dimension-wide dense vector.
	coo := sparse.NewCOO[float64](1<<17, 1<<17, 8)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(70000, 90000, 1)
	coo.Add(90000, 70000, 1)
	a := coo.ToCSR()
	_, f, err := PredictConfig(a, a, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l := PredictAccumulator(f, 32); l.String() != "Window1" {
		t.Errorf("large sparse: predicted %v, want Window1", l)
	}
}

func TestPredictedConfigsRun(t *testing.T) {
	// Every structural family's predicted config must validate and
	// produce the same result as the default config.
	for name, build := range testFamilies {
		a := build()
		cfg, _, err := PredictConfig(a, a, a, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sr := semiring.PlusTimes[float64]{}
		got, err := core.MaskedSpGEMM[float64](sr, a, a, a, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := core.MaskedSpGEMM[float64](sr, a, a, a, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(got, want) {
			t.Errorf("%s: predicted config changed the result", name)
		}
	}
}

func TestThresholdKnobs(t *testing.T) {
	f := Features{Rows: 100000, Cols: 1 << 20, ValueBytes: 8, MaxMaskRow: 5, CoIterSpeedup: 1.0}
	f.MaskSpans.Add(1<<20, 5) // rows spanning the whole dimension
	cfg := Predict(f, 0)
	if cfg.Iteration != core.MaskLoad || cfg.Accumulator != accum.AutoKind || PredictAccumulator(f, 32).Kind != accum.HashKind {
		t.Errorf("baseline prediction wrong: %v, %v", cfg, PredictAccumulator(f, 32))
	}
	// A mask row near the dimension flips to dense: the hash table it
	// would need is as big as the dense state.
	f.MaxMaskRow = 1 << 19
	if l := PredictAccumulator(f, 32); l != (core.AccumLayout{Kind: accum.DenseKind}) {
		t.Errorf("dense-state rule not honored: %v", l)
	}
	// Tile clamping.
	tiny := Features{Rows: 10, Cols: 10, CoIterSpeedup: 1}
	if got := Predict(tiny, 0).Tiles; got != 64 {
		t.Errorf("tiny graph tiles = %d, want MinTiles 64", got)
	}
}

func TestPredictEngine(t *testing.T) {
	// A small dense-accumulator problem fits the retention budget many
	// times over: the pool keeps its default depth.
	small := Features{Rows: 1 << 10, Cols: 1 << 10, ValueBytes: 8, MaskNNZ: 1 << 13, MaxMaskRow: 64}
	cfg := core.Config{Accumulator: accum.DenseKind, MarkerBits: 32}
	ec := PredictEngine(small, cfg, 4)
	if ec.MaxIdle != exec.DefaultMaxIdle {
		t.Errorf("small problem MaxIdle = %d, want default %d", ec.MaxIdle, exec.DefaultMaxIdle)
	}
	if ec.MaxPlans != exec.DefaultMaxPlans {
		t.Errorf("MaxPlans = %d, want default %d", ec.MaxPlans, exec.DefaultMaxPlans)
	}

	// A huge dense column dimension blows the budget per workspace: the
	// cap shrinks, but never below the warm-loop pair.
	huge := Features{Rows: 1 << 24, Cols: 1 << 24, ValueBytes: 8, MaskNNZ: 1 << 26, MaxMaskRow: 1 << 12}
	ec = PredictEngine(huge, cfg, 8)
	if ec.MaxIdle >= exec.DefaultMaxIdle {
		t.Errorf("huge problem MaxIdle = %d, want < default", ec.MaxIdle)
	}
	if ec.MaxIdle < 2 {
		t.Errorf("MaxIdle = %d, want >= 2", ec.MaxIdle)
	}

	// Hash accumulators key on the mask row, not the dimension: the same
	// huge dimension with a short mask row keeps a deep pool.
	hashCfg := core.Config{Accumulator: accum.HashKind, MarkerBits: 32}
	if ec := PredictEngine(huge, hashCfg, 8); ec.MaxIdle < PredictEngine(huge, cfg, 8).MaxIdle {
		t.Errorf("hash pool shallower than dense for the same features: %d", ec.MaxIdle)
	}

	// Exact pins: state is priced by accum.StateBytes, as the planner
	// prices it, at 8-byte values and 32-bit markers. Dense: 12 B per
	// column, so 4 workers × 2^18 columns × 12 B + 2^18 staged mask
	// entries × 12 B = 15 728 640 B, and 256 MiB / that = 17.
	mid := Features{Rows: 1 << 18, Cols: 1 << 18, ValueBytes: 8, MaskNNZ: 1 << 18, MaxMaskRow: 64}
	if got := PredictEngine(mid, cfg, 4).MaxIdle; got != 17 {
		t.Errorf("dense MaxIdle = %d, want 17", got)
	}
	// Hash: 16 B per slot of the HashCapacity(4096) = 8192-slot table,
	// so 32 workers × 131 072 B + 2^19 staged entries × 12 B
	// = 10 485 760 B, and 256 MiB / that = 25.
	wide := Features{Rows: 1 << 20, Cols: 1 << 24, ValueBytes: 8, MaskNNZ: 1 << 19, MaxMaskRow: 1 << 12}
	if got := PredictEngine(wide, hashCfg, 32).MaxIdle; got != 25 {
		t.Errorf("hash MaxIdle = %d, want 25", got)
	}
	// Derived window: rows spanning 3 000 columns of 2^24 with 64-entry
	// mask rows take an 8192-slot window (the floor's 96 KiB) that spills
	// the 1 % of entries in rows spanning 2^20 to a HashCapacity(64) =
	// 128-slot table: 8192 × 12 + 128 × 16 = 100 352 B per worker, so 32
	// workers × 100 352 B + 2^19 staged entries × 12 B = 9 502 720 B, and
	// 256 MiB / that = 28.
	win := Features{Rows: 1 << 20, Cols: 1 << 24, ValueBytes: 8, MaskNNZ: 1 << 19, MaxMaskRow: 64}
	win.MaskSpans.Add(3000, 99)
	win.MaskSpans.Add(1<<20, 1)
	if l := PredictAccumulator(win, 32); l != (core.AccumLayout{Kind: accum.DenseKind, Window: 8192, RowCap: 64}) {
		t.Fatalf("window features derive %v, want Window8192+spill", l)
	}
	auto := core.Config{Accumulator: accum.AutoKind, MarkerBits: 32}
	if got := PredictEngine(win, auto, 32).MaxIdle; got != 28 {
		t.Errorf("window MaxIdle = %d, want 28", got)
	}

	// The predicted configuration actually drives an engine: checkouts
	// succeed and warm reruns recycle.
	eng := exec.New(ec)
	a := graphgen.ErdosRenyi(300, 1500, 5)
	run := core.DefaultConfig()
	run.Engine = eng
	run.Tiles = 8
	sr := semiring.PlusTimes[float64]{}
	if _, err := core.MaskedSpGEMM[float64](sr, a, a, a, run); err != nil {
		t.Fatal(err)
	}
	prior := eng.Stats()
	if _, err := core.MaskedSpGEMM[float64](sr, a, a, a, run); err != nil {
		t.Fatal(err)
	}
	if d := eng.Stats().Sub(prior); d.Misses != 0 {
		t.Errorf("warm rerun under predicted engine config missed %d times (%+v)", d.Misses, d)
	}
}
