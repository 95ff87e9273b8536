package spgemm_test

import (
	"math/rand"
	"slices"
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

// TestFuseHasNoEffect pins that Options.Fuse selects nothing: KTruss
// and BetweennessCentralityBatch return the same truss, round count and
// scores, bit for bit, with it set or clear.
func TestFuseHasNoEffect(t *testing.T) {
	a := spgemm.RandomGraph("er", 60, 11).Symmetrize()
	sources := []int{0, 5, 9}
	type outcome struct {
		truss  *spgemm.Matrix
		rounds int
		bc     []float64
	}
	var got [2]outcome
	for i, fuse := range []bool{false, true} {
		o := spgemm.Defaults()
		o.Workers = 2
		o.Fuse = fuse
		var err error
		if got[i].truss, got[i].rounds, err = spgemm.KTruss(a, 4, o); err != nil {
			t.Fatal(err)
		}
		if got[i].bc, err = spgemm.BetweennessCentralityBatch(a, sources, o); err != nil {
			t.Fatal(err)
		}
	}
	if !got[1].truss.Equal(got[0].truss) || got[1].rounds != got[0].rounds {
		t.Errorf("k-truss differs with Fuse set (rounds %d vs %d)", got[1].rounds, got[0].rounds)
	}
	if !slices.Equal(got[1].bc, got[0].bc) {
		t.Errorf("BC scores differ with Fuse set")
	}
}
