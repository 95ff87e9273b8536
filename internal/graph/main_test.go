package graph

import (
	"os"
	"testing"

	"maskedspgemm/internal/core"
)

// productionCrossover is the tile crossover core ships with. TestMain
// forces it to 0 so the suite's small fixtures keep exercising the
// tiled, multi-worker path their assertions were written against; the
// small ≡ tiled tests restore it per test.
var productionCrossover = core.TileCrossover()

func TestMain(m *testing.M) {
	core.SetTileCrossoverForTest(0)
	os.Exit(m.Run())
}
