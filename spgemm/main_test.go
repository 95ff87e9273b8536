package spgemm

import (
	"os"
	"testing"

	"maskedspgemm/internal/core"
)

// productionCrossover is the tile crossover core ships with. TestMain
// forces it to 0 so the suite's small fixtures keep exercising the
// tiled path — plan-cache hits, tile counts, multi-worker assembly —
// their assertions were written against; the small ≡ tiled tests
// restore it per test (atProductionCrossover).
var productionCrossover = core.TileCrossover()

func TestMain(m *testing.M) {
	core.SetTileCrossoverForTest(0)
	os.Exit(m.Run())
}

// atProductionCrossover runs the rest of the test at the shipped
// crossover, so small fixtures take the one-tile path.
func atProductionCrossover(t testing.TB) {
	t.Helper()
	old := core.SetTileCrossoverForTest(productionCrossover)
	t.Cleanup(func() { core.SetTileCrossoverForTest(old) })
}
