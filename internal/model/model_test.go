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
	cfg, _, err = PredictConfig(road, road, road, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tiles > 2048 {
		t.Errorf("road: %d tiles exceeds the recommended cap", cfg.Tiles)
	}

	// Flat degrees: the hash table is a sliver of the dimension.
	if cfg.Accumulator != accum.HashKind {
		t.Errorf("road: predicted %v, want Hash", cfg.Accumulator)
	}

	// Social hubs: mask rows reach a good share of the dimension, so the
	// dense state is no bigger than the hash table.
	social := testFamilies["social"]()
	if cfg, _, err = PredictConfig(social, social, social, 2); err != nil {
		t.Fatal(err)
	}
	if cfg.Accumulator != accum.DenseKind {
		t.Errorf("social: predicted %v, want Dense", cfg.Accumulator)
	}
}

// TestPredictedAccumulatorIsThePlanners is the differential test of the
// accumulator choice: on every test family, and on a hypersparse
// operand, the kind PredictConfig reports is the kind a run under the
// default (derived) configuration checks out — a hash run probes its
// table, a dense run never does.
func TestPredictedAccumulatorIsThePlanners(t *testing.T) {
	families := map[string]func() *sparse.CSR[float64]{"hypersparse": hypersparse}
	for name, build := range testFamilies {
		families[name] = build
	}
	kinds := map[accum.Kind]int{}
	for name, build := range families {
		a := build()
		cfg, _, err := PredictConfig(a, a, a, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run := core.DefaultConfig()
		run.Recorder = obs.NewRecorder()
		if _, err := core.MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, a, a, a, run); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ran := accum.DenseKind
		if run.Recorder.Stats().Accum.HashProbes > 0 {
			ran = accum.HashKind
		}
		if ran != cfg.Accumulator {
			t.Errorf("%s: PredictConfig says %v, the derived run used %v", name, cfg.Accumulator, ran)
		}
		kinds[ran]++
	}
	if kinds[accum.DenseKind] == 0 || kinds[accum.HashKind] == 0 {
		t.Errorf("families exercise only one side of the rule: %v", kinds)
	}
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
	// Large dimension with thin mask rows: hash accumulator.
	coo := sparse.NewCOO[float64](1<<17, 1<<17, 8)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(70000, 90000, 1)
	coo.Add(90000, 70000, 1)
	a := coo.ToCSR()
	cfg, _, err := PredictConfig(a, a, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Accumulator != accum.HashKind {
		t.Errorf("large sparse: predicted %v, want Hash", cfg.Accumulator)
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
	cfg := Predict(f, 0)
	if cfg.Iteration != core.MaskLoad || cfg.Accumulator != accum.HashKind {
		t.Errorf("baseline prediction wrong: %v", cfg)
	}
	// A mask row near the dimension flips to dense: the hash table it
	// would need is as big as the dense state.
	f.MaxMaskRow = 1 << 19
	if Predict(f, 0).Accumulator != accum.DenseKind {
		t.Error("dense-state rule not honored")
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
	small := Features{Rows: 1 << 10, Cols: 1 << 10, MaskNNZ: 1 << 13, MaxMaskRow: 64}
	cfg := core.Config{Accumulator: accum.DenseKind}
	ec := PredictEngine(small, cfg, 4)
	if ec.MaxIdle != exec.DefaultMaxIdle {
		t.Errorf("small problem MaxIdle = %d, want default %d", ec.MaxIdle, exec.DefaultMaxIdle)
	}
	if ec.MaxPlans != exec.DefaultMaxPlans {
		t.Errorf("MaxPlans = %d, want default %d", ec.MaxPlans, exec.DefaultMaxPlans)
	}

	// A huge dense column dimension blows the budget per workspace: the
	// cap shrinks, but never below the warm-loop pair.
	huge := Features{Rows: 1 << 24, Cols: 1 << 24, MaskNNZ: 1 << 26, MaxMaskRow: 1 << 12}
	ec = PredictEngine(huge, cfg, 8)
	if ec.MaxIdle >= exec.DefaultMaxIdle {
		t.Errorf("huge problem MaxIdle = %d, want < default", ec.MaxIdle)
	}
	if ec.MaxIdle < 2 {
		t.Errorf("MaxIdle = %d, want >= 2", ec.MaxIdle)
	}

	// Hash accumulators key on the mask row, not the dimension: the same
	// huge dimension with a short mask row keeps a deep pool.
	hashCfg := core.Config{Accumulator: accum.HashKind}
	if ec := PredictEngine(huge, hashCfg, 8); ec.MaxIdle < PredictEngine(huge, cfg, 8).MaxIdle {
		t.Errorf("hash pool shallower than dense for the same features: %d", ec.MaxIdle)
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
