package core

import (
	"os"
	"testing"
)

// productionCrossover is the tile crossover the package ships with.
// TestMain forces it to 0 for the whole suite: the fixtures here are far
// below any sensible crossover, and their assertions — tile counts,
// plan-cache hits, multi-worker assembly, serial ≡ parallel — are about
// the tiled path. Tests of the one-tile side restore it themselves
// (atProductionCrossover).
var productionCrossover = tileCrossover

func TestMain(m *testing.M) {
	SetTileCrossoverForTest(0)
	os.Exit(m.Run())
}

// atProductionCrossover runs the rest of the test at the shipped
// crossover, so small fixtures take the one-tile path.
func atProductionCrossover(t testing.TB) {
	t.Helper()
	setCrossover(t, productionCrossover)
}

// setCrossover pins the crossover for the rest of the test.
func setCrossover(t testing.TB, w int64) {
	t.Helper()
	old := SetTileCrossoverForTest(w)
	t.Cleanup(func() { SetTileCrossoverForTest(old) })
}
