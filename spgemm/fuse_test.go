package spgemm_test

import (
	"errors"
	"math/rand"
	"testing"

	"maskedspgemm/spgemm"
)

// randMatrixT builds a deterministic random matrix through the public
// triple constructor.
func randMatrixT(t *testing.T, rows, cols int, density float64, seed int64) *spgemm.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var trips []spgemm.Triple
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				trips = append(trips, spgemm.Triple{Row: i, Col: j, Val: rng.Float64()*4 - 2})
			}
		}
	}
	m, err := spgemm.FromTriples(rows, cols, trips)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestKTrussFuseOptionMatches(t *testing.T) {
	a := spgemm.RandomGraph("er", 60, 11).Symmetrize()
	opts := spgemm.Defaults()
	opts.Tiles = 8
	opts.Workers = 2
	want, wantRounds, err := spgemm.KTruss(a, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Fuse = true
	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	got, gotRounds, err := spgemm.KTruss(a, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || gotRounds != wantRounds {
		t.Fatalf("fused k-truss differs (rounds %d vs %d)", gotRounds, wantRounds)
	}
}

func TestBCBatchFuseOptionMatches(t *testing.T) {
	a := spgemm.RandomGraph("er", 40, 13).Symmetrize()
	sources := []int{0, 5, 9}
	opts := spgemm.Defaults()
	opts.Tiles = 8
	opts.Workers = 2
	want, err := spgemm.BetweennessCentralityBatch(a, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Fuse = true
	got, err := spgemm.BetweennessCentralityBatch(a, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if diff := got[v] - want[v]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("bc[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestNewEngineFor(t *testing.T) {
	a := spgemm.RandomGraph("er", 60, 23).Symmetrize()
	opts := spgemm.Defaults()
	if _, err := spgemm.NewEngineFor(a, a, a, opts, spgemm.EngineConfig{RetentionBudget: -1}); !errors.Is(err, spgemm.ErrConfig) {
		t.Fatalf("negative budget: err = %v, want ErrConfig", err)
	}
	eng, err := spgemm.NewEngineFor(a, a, a, opts, spgemm.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Engine = eng
	opts.Semiring = spgemm.SRPlusPair
	if _, err := spgemm.MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
	// A tiny budget must still leave the warm-loop pair.
	eng, err = spgemm.NewEngineFor(a, a, a, opts, spgemm.EngineConfig{RetentionBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil {
		t.Fatal("nil engine")
	}
}
