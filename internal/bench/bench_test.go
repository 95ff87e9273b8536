package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/sparse"
)

// testShift shrinks the corpus to test scale (~1/2^5 of benchmark size).
const testShift = 5

func testOptions() Options {
	o := DefaultOptions()
	o.Shift = testShift
	o.Workers = 2
	o.Method = QuickMethodology()
	o.TileCounts = []int{16, 64}
	o.Kappas = []float64{0.1, 1, 10}
	return o
}

func TestCorpusBuildsAndIsDeterministic(t *testing.T) {
	for _, g := range Corpus {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			a := g.Build(testShift)
			if err := a.Check(); err != nil {
				t.Fatalf("malformed: %v", err)
			}
			if a.NNZ() == 0 {
				t.Fatal("empty graph")
			}
			b := g.Build(testShift)
			if !sparse.Equal(a, b) {
				t.Error("not deterministic")
			}
			if g.PaperN == 0 || g.PaperNNZ == 0 {
				t.Error("missing Table I reference sizes")
			}
		})
	}
}

func TestCorpusKindsMatchStructure(t *testing.T) {
	for _, g := range Corpus {
		a := g.Build(testShift)
		s := sparse.ComputeStats(a, false)
		switch g.Kind {
		case "R":
			if s.MaxRowNNZ > 10 {
				t.Errorf("%s: road graph with max degree %d", g.Name, s.MaxRowNNZ)
			}
		case "S":
			if float64(s.MaxRowNNZ) < 4*s.AvgRowNNZ {
				t.Errorf("%s: social graph without hubs (max %d, avg %.1f)",
					g.Name, s.MaxRowNNZ, s.AvgRowNNZ)
			}
		case "C":
			// circuit5M has dense rails on a thin band; stokes is a dense
			// band with modest rails — distinguish by name.
			if g.Name == "circuit5M-sim" && float64(s.MaxRowNNZ) < 16*s.AvgRowNNZ {
				t.Errorf("%s: circuit without dense rails (max %d, avg %.1f)",
					g.Name, s.MaxRowNNZ, s.AvgRowNNZ)
			}
			if g.Name == "stokes-sim" && s.AvgRowNNZ < 10 {
				t.Errorf("%s: band too thin (avg %.1f)", g.Name, s.AvgRowNNZ)
			}
		case "W":
		default:
			t.Errorf("%s: unknown kind %q", g.Name, g.Kind)
		}
	}
}

func TestFindGraph(t *testing.T) {
	if _, ok := FindGraph("GAP-road-sim"); !ok {
		t.Error("GAP-road-sim missing")
	}
	if _, ok := FindGraph("nope"); ok {
		t.Error("bogus name found")
	}
	if len(CorpusNames()) != len(Corpus) {
		t.Error("CorpusNames length mismatch")
	}
}

func TestRelativeTable(t *testing.T) {
	r := NewRelativeTable()
	// g1: best 100 (cfgA); g2: best 10 (cfgB).
	r.Add("cfgA", "g1", 100)
	r.Add("cfgB", "g1", 105) // within 10%
	r.Add("cfgC", "g1", 200) // not
	r.Add("cfgA", "g2", 50)  // not
	r.Add("cfgB", "g2", 10)
	// cfgC unmeasured on g2 -> counts against it.
	pct := r.WithinPercent(0.10)
	if pct["cfgA"] != 50 || pct["cfgB"] != 100 || pct["cfgC"] != 0 {
		t.Errorf("pct = %v, want cfgA=50 cfgB=100 cfgC=0", pct)
	}
	if got := r.Configs(); len(got) != 3 || got[0] != "cfgA" {
		t.Errorf("configs = %v", got)
	}
	if ms, ok := r.Time("cfgA", "g1"); !ok || ms != 100 {
		t.Error("Time lookup failed")
	}
}

func TestRelativeTableGrouped(t *testing.T) {
	r := NewRelativeTable()
	// Two families; Hash is globally slower but must be compared within
	// its own group (the Fig. 10/13 split-by-accumulator methodology).
	r.Add("X,Dense@64", "g1", 10)
	r.Add("X,Dense@256", "g1", 30)
	r.Add("X,Hash@64", "g1", 100)
	r.Add("X,Hash@256", "g1", 105)
	pct := r.WithinPercentGrouped(accumGroup, 0.10)
	if pct["X,Dense@64"] != 100 || pct["X,Dense@256"] != 0 {
		t.Errorf("dense group wrong: %v", pct)
	}
	if pct["X,Hash@64"] != 100 || pct["X,Hash@256"] != 100 {
		t.Errorf("hash group must be compared within itself: %v", pct)
	}
}

func TestAccumGroup(t *testing.T) {
	if accumGroup("FlopBalanced,Dynamic,Hash@2048") != "Hash" {
		t.Error("accumGroup parse failed")
	}
	if accumGroup("Dense@64") != "Dense" {
		t.Error("accumGroup fallback failed")
	}
}

func TestMeasureMethodology(t *testing.T) {
	calls := 0
	run := func() (int64, error) {
		calls++
		return 42, nil
	}
	m, err := measure(run, Methodology{Warmups: 2, MaxReps: 3, Budget: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 || m.Reps != 3 || m.OutputNNZ != 42 {
		t.Errorf("calls=%d reps=%d nnz=%d", calls, m.Reps, m.OutputNNZ)
	}
	if m.Millis < 0 {
		t.Error("negative time")
	}

	// A kernel whose checksum changes between repetitions is broken:
	// the measurement must fail naming both values, not report the last.
	calls = 0
	drifting := func() (int64, error) {
		calls++
		return int64(40 + calls), nil
	}
	_, err = measure(drifting, Methodology{Warmups: 1, MaxReps: 3, Budget: time.Hour})
	if err == nil || !strings.Contains(err.Error(), "41") || !strings.Contains(err.Error(), "42") {
		t.Errorf("checksum drift 41 -> 42 not reported: %v", err)
	}
	if calls != 2 {
		t.Errorf("measurement kept running after the drift: %d calls", calls)
	}
}

func TestTimeMaskedChecksum(t *testing.T) {
	g, _ := FindGraph("GAP-road-sim")
	a := g.Build(testShift)
	o := testOptions()
	m1, err := o.timeMasked("test", g.Name, "hybrid", a, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Iteration = core.MaskLoad
	m2, err := o.timeMasked("test", g.Name, "maskload", a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1.OutputNNZ != m2.OutputNNZ {
		t.Errorf("checksums differ: %d vs %d", m1.OutputNNZ, m2.OutputNNZ)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil); got != "" {
		t.Errorf("empty series: %q", got)
	}
	if got := sparkline([]float64{5, 5, 5}); len([]rune(got)) != 3 {
		t.Errorf("flat series length: %q", got)
	}
	got := []rune(sparkline([]float64{1, 2, 3, 100}))
	if got[0] != '▁' || got[3] != '█' {
		t.Errorf("extremes not mapped to extreme glyphs: %q", string(got))
	}
	// Monotone input -> non-decreasing glyph heights.
	mono := []rune(sparkline([]float64{1, 4, 9, 16, 25}))
	for i := 1; i < len(mono); i++ {
		if mono[i] < mono[i-1] {
			t.Errorf("sparkline not monotone: %q", string(mono))
		}
	}
}

func TestShuffleRowsPreservesContent(t *testing.T) {
	g, _ := FindGraph("GAP-road-sim")
	a := g.Build(testShift)
	s := shuffleRows(a, 7)
	if s.NNZ() != a.NNZ() {
		t.Fatal("shuffle changed nnz")
	}
	s.SortRows()
	if !sparse.Equal(a, s) {
		t.Error("shuffle+sort is not the identity")
	}
}

func TestTuneSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning is not short")
	}
	g, _ := FindGraph("circuit5M-sim")
	a := g.Build(testShift)
	o := testOptions()
	var buf bytes.Buffer
	cfg, err := Tune(a, o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("tuned config invalid: %v", err)
	}
	if !strings.Contains(buf.String(), "stage 1") {
		t.Error("tuning log missing stages")
	}
	// The tuned config must not be slower than the default by more than
	// noise; check it at least runs.
	if _, err := o.timeMasked("test", g.Name, "tuned", a, cfg); err != nil {
		t.Errorf("tuned config does not run: %v", err)
	}
}

func TestVanillaMethodTrims(t *testing.T) {
	m := DefaultOptions().singleShot().Method
	if m.Warmups != 0 || m.MaxReps != 1 {
		t.Error("vanilla methodology must be single-shot")
	}
}
