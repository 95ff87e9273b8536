package core

import (
	"fmt"
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
// the accumulator kind the planner must derive for it.
type accumFixture struct {
	name string
	a    *sparse.CSR[float64]
	want accum.Kind
}

// accumFixtures are the corpus families at the test suite's scale
// (internal/bench's parameter sets, shift 4), plus a hypersparse operand
// of 2²⁴ columns: the tc-skew shapes (hubs whose rows reach a good share
// of the dimension) derive dense; the road and banded shapes, whose hash
// table is a sliver of the dimension, derive hash.
func accumFixtures() []accumFixture {
	hyper := sparse.NewCOO[float64](1<<24, 1<<24, 4)
	for _, e := range [][2]sparse.Index{{0, 1}, {1, 0}, {70000, 90000}, {90000, 70000}} {
		hyper.Add(e[0], e[1], 1)
	}
	return []accumFixture{
		{"orkut-shaped", graphgen.RMAT(9, 20, 0.57, 0.19, 0.19, 0x0870), accum.DenseKind},
		{"hollywood-shaped", graphgen.RMAT(8, 36, 0.55, 0.2, 0.2, 0x0111), accum.DenseKind},
		{"livejournal-shaped", graphgen.RMAT(10, 9, 0.57, 0.19, 0.19, 0x117E), accum.DenseKind},
		{"uk-shaped", sparse.Symmetrize(graphgen.WebGraph(2000, 13, 0.55, 0x2002)), accum.DenseKind},
		{"road", graphgen.RoadNetwork(57, 50, 0.95, 0x6A9), accum.HashKind},
		{"banded", graphgen.Circuit(1625, 9, 0.85, 2, 1625/60, 0x570E5), accum.HashKind},
		{"railed-band", graphgen.Circuit(1875, 3, 0.6, 4, 1875/8, 0xC1AC), accum.HashKind},
		{"hypersparse-2^24", hyper.ToCSR(), accum.HashKind},
	}
}

// ranKind reports the accumulator family a recorded run used: a hash
// accumulator probes its table for every mask load and update, a dense
// one never probes.
func ranKind(rec *obs.Recorder) accum.Kind {
	if rec.Stats().Accum.HashProbes > 0 {
		return accum.HashKind
	}
	return accum.DenseKind
}

// TestDeriveAccumulatorVerdicts pins the planner's choice on the fixture
// shapes, both as DeriveAccumulator's verdict on (cols, max row) and as
// the family a run under the default configuration checks out.
func TestDeriveAccumulatorVerdicts(t *testing.T) {
	for _, fx := range accumFixtures() {
		a := fx.a
		var rowCap int64
		for i := 0; i < a.Rows; i++ {
			rowCap = max(rowCap, a.RowNNZ(i))
		}
		if got := DeriveAccumulator(a.Cols, rowCap, 8, 32); got != fx.want {
			t.Errorf("%s: %d columns, row capacity %d: derived %v, want %v", fx.name, a.Cols, rowCap, got, fx.want)
		}
		for _, crossover := range []int64{productionCrossover, 0} {
			setCrossover(t, crossover)
			cfg := DefaultConfig()
			cfg.Recorder = obs.NewRecorder()
			if _, err := MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, a, a, a, cfg); err != nil {
				t.Fatalf("%s: %v", fx.name, err)
			}
			if got := ranKind(cfg.Recorder); got != fx.want {
				t.Errorf("%s at crossover %d: the derived run used %v, want %v", fx.name, crossover, got, fx.want)
			}
		}
	}
}

// TestDeriveAccumulatorRule pins the rule's arithmetic: dense exactly up
// to denseStateFactor times the hash table's bytes, with the table sized
// the way accum.NewHash sizes it.
func TestDeriveAccumulatorRule(t *testing.T) {
	// Row capacity 1000 → a 2048-slot table of 16-byte slots (float64
	// value, 32-bit marker, 32-bit index): 32 KiB. Dense spends 12 bytes
	// a column, so the boundary sits at denseStateFactor·32768/12 columns.
	const rowCap = 1000
	limit := int(denseStateFactor * accum.HashCapacity(rowCap) * 16 / 12)
	if got := DeriveAccumulator(limit, rowCap, 8, 32); got != accum.DenseKind {
		t.Errorf("%d columns: %v, want Dense at the boundary", limit, got)
	}
	if got := DeriveAccumulator(limit+1, rowCap, 8, 32); got != accum.HashKind {
		t.Errorf("%d columns: %v, want Hash past the boundary", limit+1, got)
	}
	// Narrower markers and values shrink both sides alike; the table's
	// 4-byte index does not shrink, so the boundary moves up.
	if got := DeriveAccumulator(limit+1, rowCap, 4, 8); got != accum.DenseKind {
		t.Errorf("%d columns, 4-byte values, 8-bit markers: %v, want Dense", limit+1, got)
	}
	// An explicit kind is never overridden.
	for _, k := range []accum.Kind{accum.DenseKind, accum.HashKind} {
		cfg := DefaultConfig()
		cfg.Accumulator = k
		if got := accumulatorFor[float64](cfg, 1<<24, 1); got != k {
			t.Errorf("explicit %v resolved to %v", k, got)
		}
	}
}

// TestDerivedBitIdentical is the law that makes the choice a pure cost
// decision: derived, forced dense and forced hash return the same matrix
// bit for bit, on both sides of the tile crossover, for single products
// and for chains, on operands that derive each way.
func TestDerivedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	square := randMatrix(80, 80, 0.1, r)
	// 80 rows over 40 000 columns, ~6 entries a row: derives hash.
	wide := randMatrix(80, 40000, 0.00015, r)
	wideT := sparse.Transpose(wide)
	sr := semiring.PlusTimes[float64]{}
	products := []struct {
		name string
		want accum.Kind
		run  func(cfg Config) (*sparse.CSR[float64], error)
	}{
		{"square", accum.DenseKind, func(cfg Config) (*sparse.CSR[float64], error) {
			return MaskedSpGEMM[float64](sr, square, square, square, cfg)
		}},
		{"wide", accum.HashKind, func(cfg Config) (*sparse.CSR[float64], error) {
			return MaskedSpGEMM[float64](sr, wide, square, wide, cfg)
		}},
		{"chain/dense-then-hash", accum.DenseKind, func(cfg Config) (*sparse.CSR[float64], error) {
			return FusedMaskedSpGEMM[float64](sr, square, square, square, wide, wide, cfg)
		}},
		{"chain/hash-then-dense", accum.HashKind, func(cfg Config) (*sparse.CSR[float64], error) {
			return FusedMaskedSpGEMM[float64](sr, wide, square, wide, square, wideT, cfg)
		}},
	}
	eng := exec.New(exec.Config{})
	for _, p := range products {
		for _, crossover := range []int64{productionCrossover, 0} {
			setCrossover(t, crossover)
			var want *sparse.CSR[float64]
			for _, k := range []accum.Kind{accum.HashKind, accum.DenseKind, accum.AutoKind} {
				for _, e := range []*exec.Engine{nil, eng} {
					cfg := DefaultConfig()
					cfg.Accumulator, cfg.Engine, cfg.Tiles, cfg.Workers = k, e, 5, 2
					got, err := p.run(cfg)
					name := fmt.Sprintf("%s/%v/crossover=%d/engine=%v", p.name, k, crossover, e != nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want == nil {
						want = got
					} else if !sparse.Equal(got, want) {
						t.Fatalf("%s: result differs from the forced-hash run", name)
					}
				}
			}
		}
		// A recorder sums both stages of a chain, so the derived kind is
		// read off the single products only.
		if p.name == "square" || p.name == "wide" {
			cfg := DefaultConfig()
			cfg.Recorder = obs.NewRecorder()
			if _, err := p.run(cfg); err != nil {
				t.Fatal(err)
			}
			if got := ranKind(cfg.Recorder); got != p.want {
				t.Errorf("%s: derived %v, want %v", p.name, got, p.want)
			}
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
