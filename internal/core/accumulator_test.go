package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// accumFixture is one triangle-counting operand, C = A ⊙ (A × A), with
// the accumulator the planner must derive for it (AccumLayout.String).
type accumFixture struct {
	name string
	a    *sparse.CSR[float64]
	want string
}

// accumFixtures are the corpus families at the test suite's scale
// (internal/bench's parameter sets, shift 4), plus a hypersparse operand
// of 2²⁴ columns: the tc-skew shapes (hubs whose rows reach across the
// dimension) derive full-width dense; the road shape, whose rows span a
// sliver of the dimension, a window with no spill; the hypersparse
// operand a one-slot window. The banded shapes' rail-adjacent rows span
// the whole dimension, which at this scale fits the window floor: full
// width. At the benchmark's scale (shift 0) the same generators derive
// a window that spills those rows.
func accumFixtures() []accumFixture {
	hyper := sparse.NewCOO[float64](1<<24, 1<<24, 4)
	for _, e := range [][2]sparse.Index{{0, 1}, {1, 0}, {70000, 90000}, {90000, 70000}} {
		hyper.Add(e[0], e[1], 1)
	}
	return []accumFixture{
		{"orkut-shaped", graphgen.RMAT(9, 20, 0.57, 0.19, 0.19, 0x0870), "Dense"},
		{"hollywood-shaped", graphgen.RMAT(8, 36, 0.55, 0.2, 0.2, 0x0111), "Dense"},
		{"livejournal-shaped", graphgen.RMAT(10, 9, 0.57, 0.19, 0.19, 0x117E), "Dense"},
		{"uk-shaped", sparse.Symmetrize(graphgen.WebGraph(2000, 13, 0.55, 0x2002)), "Dense"},
		{"road", graphgen.RoadNetwork(57, 50, 0.95, 0x6A9), "Window128"},
		{"banded", graphgen.Circuit(1625, 9, 0.85, 2, 1625/60, 0x570E5), "Dense"},
		{"railed-band", graphgen.Circuit(1875, 3, 0.6, 4, 1875/8, 0xC1AC), "Dense"},
		{"banded-full-scale", graphgen.Circuit(26000, 9, 0.85, 2, 26000/60, 0x570E5), "Window8192+spill"},
		{"railed-band-full-scale", graphgen.Circuit(30000, 3, 0.6, 4, 30000/8, 0xC1AC), "Window16384+spill"},
		{"hypersparse-2^24", hyper.ToCSR(), "Window1"},
	}
}

// ranLayout reports what a recorded run's accumulators did, the part of
// the layout a run shows: "spill" when a window routed rows to its
// spill table, "hash" when a hash accumulator probed its table
// otherwise, "dense" (full width or a window) when nothing probed.
func ranLayout(rec *obs.Recorder) string {
	switch a := rec.Stats().Accum; {
	case a.SpilledRows > 0:
		return "spill"
	case a.HashProbes > 0:
		return "hash"
	default:
		return "dense"
	}
}

// runSignal is the ranLayout a run of layout l shows.
func runSignal(l AccumLayout) string {
	switch {
	case l.Kind == accum.HashKind:
		return "hash"
	case l.RowCap > 0:
		return "spill"
	default:
		return "dense"
	}
}

// TestDeriveAccumulatorVerdicts pins the planner's choice on the fixture
// shapes: DeriveAccumulator's verdict on (cols, max row, spans),
// AccumulatorOf's on the operands, and what a run under the default
// configuration does with it, on both sides of the tile crossover.
func TestDeriveAccumulatorVerdicts(t *testing.T) {
	for _, fx := range accumFixtures() {
		a := fx.a
		plan, err := maskRows(nil, a, 1)
		if err != nil {
			t.Fatal(err)
		}
		l := DeriveAccumulator(a.Cols, plan.RowCap, plan.Spans, 8, 32)
		if l.String() != fx.want {
			t.Errorf("%s: %d columns, row capacity %d, widest span %d: derived %v, want %v",
				fx.name, a.Cols, plan.RowCap, plan.Spans.Max, l, fx.want)
		}
		if got, err := AccumulatorOf(a, a, a, DefaultConfig()); err != nil || got != l {
			t.Errorf("%s: AccumulatorOf = %v, %v; DeriveAccumulator %v", fx.name, got, err, l)
		}
		// A product above the production crossover is tiled on both sides.
		crossovers := []int64{productionCrossover, 0}
		setCrossover(t, productionCrossover)
		if !belowTileCrossover(a, a, a) {
			crossovers = crossovers[:1]
		}
		for _, crossover := range crossovers {
			setCrossover(t, crossover)
			cfg := DefaultConfig()
			cfg.Recorder = obs.NewRecorder()
			if _, err := MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, a, a, a, cfg); err != nil {
				t.Fatalf("%s: %v", fx.name, err)
			}
			if got, want := ranLayout(cfg.Recorder), runSignal(l); got != want {
				t.Errorf("%s at crossover %d: the derived %v run shows %s, want %s", fx.name, crossover, l, got, want)
			}
		}
	}
}

// spansOf is a span profile of rows rows spanning span columns with nnz
// entries each.
func spansOf(rows int, span, nnz int64) accum.Spans {
	var s accum.Spans
	for range rows {
		s.Add(span, nnz)
	}
	return s
}

// TestDeriveAccumulatorRule pins the rule's arithmetic: the dense budget
// is max(denseStateFactor × the hash table's bytes, windowFloor), with
// the table sized the way accum.NewHash sizes it; the window is the
// widest span's power of two inside it; a window spills only when some
// row is wider, and gives way to hash when it covers under
// 1/denseStateFactor of the mask entries.
func TestDeriveAccumulatorRule(t *testing.T) {
	// Row capacity 2000 → a 4096-slot table of 16-byte slots (float64
	// value, 32-bit marker, 32-bit index): 64 KiB. Dense spends 12 bytes
	// a column, so with rows spanning every column the boundary sits at
	// denseStateFactor·65536/12 columns (above the floor's).
	const rowCap = 2000
	limit := int(denseStateFactor * accum.HashCapacity(rowCap) * 16 / 12)
	wide := func(cols int) accum.Spans { return spansOf(10, int64(cols), rowCap) }
	if got := DeriveAccumulator(limit, rowCap, wide(limit), 8, 32); got != (AccumLayout{Kind: accum.DenseKind}) {
		t.Errorf("%d columns: %v, want full-width Dense at the boundary", limit, got)
	}
	if got := DeriveAccumulator(limit+1, rowCap, wide(limit+1), 8, 32); got.Kind != accum.HashKind || got.RowCap != rowCap {
		t.Errorf("%d columns: %v, want Hash past the boundary", limit+1, got)
	}
	// Narrower markers and values shrink both sides alike; the table's
	// 4-byte index does not shrink, so the boundary moves up.
	if got := DeriveAccumulator(limit+1, rowCap, wide(limit+1), 4, 8); got.Kind != accum.DenseKind {
		t.Errorf("%d columns, 4-byte values, 8-bit markers: %v, want Dense", limit+1, got)
	}
	// A tiny table's budget is the floor; rows spanning 300 columns of a
	// million take a 512-slot window and nothing to spill to.
	if got := DeriveAccumulator(1<<20, 8, spansOf(100, 300, 8), 8, 32); got != (AccumLayout{Kind: accum.DenseKind, Window: 512}) {
		t.Errorf("300-column spans: %v, want Window512", got)
	}
	// The window is capped by the floor: rows wider than it spill, to a
	// table sized like the hash accumulator's.
	floorSlots := int(windowFloor / 12)
	spans := spansOf(90, 40, 8)
	spans.Merge(spansOf(10, 1<<19, 8))
	if got := DeriveAccumulator(1<<20, 8, spans, 8, 32); got != (AccumLayout{Kind: accum.DenseKind, Window: floorSlots, RowCap: 8}) {
		t.Errorf("90%% narrow rows: %v, want Window%d+spill", got, floorSlots)
	}
	// ... unless the window would cover under half the mask entries.
	spans = spansOf(40, 40, 8)
	spans.Merge(spansOf(60, 1<<19, 8))
	if got := DeriveAccumulator(1<<20, 8, spans, 8, 32); got.Kind != accum.HashKind {
		t.Errorf("40%% narrow rows: %v, want Hash", got)
	}
	// A product whose rows span three columns pins a 4-slot window, not
	// the floor.
	if got := DeriveAccumulator(1<<20, 2, spansOf(5, 3, 2), 8, 32); got.Window != 4 {
		t.Errorf("3-column spans: %v, want Window4", got)
	}
	// An explicit kind is never overridden and never windowed; spaces that
	// load no mask never get a window.
	narrow := exec.Plan{RowCap: 8, Spans: spansOf(100, 300, 8)}
	for _, k := range []accum.Kind{accum.DenseKind, accum.HashKind} {
		cfg := DefaultConfig()
		cfg.Accumulator = k
		if got := accumulatorFor[float64](cfg, 1<<24, narrow); got.Kind != k || got.Window != 0 {
			t.Errorf("explicit %v resolved to %v", k, got)
		}
	}
	for _, it := range []IterationSpace{Vanilla, CoIter} {
		cfg := DefaultConfig()
		cfg.Iteration = it
		if got := accumulatorFor[float64](cfg, 1<<20, narrow); got.Window != 0 {
			t.Errorf("%v resolved to %v, want no window", it, got)
		}
	}
}

// stretchedBand is an r×n operand whose row i holds about perRow
// entries within half columns of column i·n/r, plus, for each of rails
// rows, entries across the whole width: rows that fit a window and rows
// that spill from it.
func stretchedBand(r, n, half, perRow, rails int, rng *rand.Rand) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](r, n, 0)
	for i := range r {
		for range perRow {
			j := min(max(i*n/r+rng.Intn(2*half+1)-half, 0), n-1)
			coo.Add(sparse.Index(i), sparse.Index(j), float64(rng.Intn(5)+1))
		}
	}
	for k := range rails {
		i := (k + 1) * r / (rails + 1)
		for j := 0; j < n; j += 1 + rng.Intn(n/8) {
			coo.Add(sparse.Index(i), sparse.Index(j), float64(rng.Intn(5)+1))
		}
	}
	return coo.ToCSR()
}

// windowOperands are 300 rows over 9 000 columns, past the floor's
// 8 192-slot window: M ⊙ (A × B) with A a 300 × 300 band and M, B bands
// stretched across the columns (each row spans ~21 of them), and with
// three rails in M and B for the railed variant.
func windowOperands(rng *rand.Rand) (a, band, railed *sparse.CSR[float64]) {
	return stretchedBand(300, 300, 3, 2, 0, rng), stretchedBand(300, 9000, 10, 2, 0, rng),
		stretchedBand(300, 9000, 10, 2, 3, rng)
}

// operands is one masked product, M ⊙ (A × B).
type operands struct {
	name    string
	m, a, b *sparse.CSR[float64]
	want    string // the derived layout of the product
}

func runOperands[S semiring.Semiring[float64]](sr S, op operands, cfg Config) (*sparse.CSR[float64], error) {
	return MaskedSpGEMM[float64](sr, op.m, op.a, op.b, cfg)
}

// TestDerivedBitIdentical is the law that makes the choice a pure cost
// decision: over allConfigs and all six semirings, every configuration
// returns bit for bit what the same configuration returns on forced
// hash accumulators — on both sides of the tile crossover, with and
// without a shared engine, on operands that derive full-width dense, a
// window, a window that spills, and hash.
func TestDerivedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	square := randMatrix(80, 80, 0.1, r)
	// 80 rows over 40 000 columns, ~6 entries a row: derives hash.
	wide := randMatrix(80, 40000, 0.00015, r)
	a, band, railed := windowOperands(r)
	products := []operands{
		{name: "square", m: square, a: square, b: square, want: "Dense"},
		{name: "wide", m: wide, a: square, b: wide, want: "Hash"},
		{name: "band", m: band, a: a, b: band, want: "Window32"},
		{name: "railed", m: railed, a: a, b: railed, want: "Window8192+spill"},
	}
	semirings := []struct {
		name string
		run  func(op operands, cfg Config) (*sparse.CSR[float64], error)
	}{
		{"PlusTimes", func(op operands, cfg Config) (*sparse.CSR[float64], error) {
			return runOperands(semiring.PlusTimes[float64]{}, op, cfg)
		}},
		{"PlusPair", func(op operands, cfg Config) (*sparse.CSR[float64], error) {
			return runOperands(semiring.PlusPair[float64]{}, op, cfg)
		}},
		{"PlusSecond", func(op operands, cfg Config) (*sparse.CSR[float64], error) {
			return runOperands(semiring.PlusSecond[float64]{}, op, cfg)
		}},
		{"MinPlus", func(op operands, cfg Config) (*sparse.CSR[float64], error) {
			return runOperands(semiring.MinPlus[float64]{Inf: math.Inf(1)}, op, cfg)
		}},
		{"MinFirst", func(op operands, cfg Config) (*sparse.CSR[float64], error) {
			return runOperands(semiring.MinFirst[float64]{Inf: math.Inf(1)}, op, cfg)
		}},
		{"OrAnd", func(op operands, cfg Config) (*sparse.CSR[float64], error) {
			return runOperands(semiring.OrAnd[float64]{}, op, cfg)
		}},
	}
	eng := exec.New(exec.Config{})
	for _, p := range products {
		if got, err := AccumulatorOf(p.m, p.a, p.b, DefaultConfig()); err != nil || got.String() != p.want {
			t.Fatalf("%s: derives %v (%v), want %s: the fixture no longer covers its layout", p.name, got, err, p.want)
		}
		for _, crossover := range []int64{productionCrossover, 0} {
			setCrossover(t, crossover)
			for _, sr := range semirings {
				for ci, cfg := range allConfigs() {
					ref := cfg
					ref.Accumulator = accum.HashKind
					want, err := sr.run(p, ref)
					if err != nil {
						t.Fatalf("%s/%s/config %d on hash: %v", p.name, sr.name, ci, err)
					}
					// Configurations alternate between no engine and the
					// shared one, so pooled workspaces serve every layout.
					if ci%2 == 1 {
						cfg.Engine = eng
					}
					name := fmt.Sprintf("%s/%s/crossover=%d/config %d (%v/%v/%d-bit)/engine=%v",
						p.name, sr.name, crossover, ci, cfg.Iteration, cfg.Accumulator, cfg.MarkerBits, cfg.Engine != nil)
					got, err := sr.run(p, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !sparse.Equal(got, want) {
						t.Fatalf("%s: result differs from the forced-hash run", name)
					}
				}
			}
		}
		cfg := DefaultConfig()
		cfg.Recorder = obs.NewRecorder()
		if _, err := runOperands(semiring.PlusTimes[float64]{}, p, cfg); err != nil {
			t.Fatal(err)
		}
		l, _ := AccumulatorOf(p.m, p.a, p.b, cfg)
		if got, want := ranLayout(cfg.Recorder), runSignal(l); got != want {
			t.Errorf("%s: derived %v, the run shows %s", p.name, l, got)
		}
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestStagingPooledAcrossKinds is the reason staging is pooled apart
// from the workspace: alternating two products whose derived kinds
// differ keeps a workspace per kind but one idle staging set, not two.
func TestStagingPooledAcrossKinds(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	square := randMatrix(80, 80, 0.1, r)
	wide := randMatrix(80, 40000, 0.00015, r)
	sr := semiring.PlusTimes[float64]{}
	eng := exec.New(exec.Config{})
	cfg := DefaultConfig()
	cfg.Engine, cfg.Tiles, cfg.Workers = eng, 6, 2
	for range 3 {
		if _, err := MaskedSpGEMM[float64](sr, square, square, square, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := MaskedSpGEMM[float64](sr, wide, square, wide, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Idle(); got != 2 {
		t.Errorf("idle workspaces = %d, want 2 (one dense, one hash)", got)
	}
	if got := eng.IdleStaging(); got != 1 {
		t.Errorf("idle staging sets = %d, want 1 shared by both kinds", got)
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}
