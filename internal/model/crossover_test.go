package model

import (
	"math"
	"testing"

	"maskedspgemm/internal/core"
)

// TestTileCrossoverMatchesDerivation is the drift gate: the constant
// core.planFor decides on must be the ledger-unit derivation of this
// package, so neither can be retuned alone.
func TestTileCrossoverMatchesDerivation(t *testing.T) {
	if got, want := core.TileCrossover(), DerivedTileCrossover(); got != want {
		t.Errorf("core's tile crossover is %d, the derivation from ReferenceTileCosts gives %d: "+
			"update one to match the other (and docs/TUNING.md)", got, want)
	}
}

// TestTileCrossoverDerivation pins the derivation's arithmetic and its
// monotonicity: more fixed cost raises the break-even work, more
// workers or a slower kernel lower it, one worker never breaks even.
func TestTileCrossoverDerivation(t *testing.T) {
	c := TileCosts{
		RowWorkNsPerRow: 8, PrefixNsPerRow: 2,
		BuildNsPerTile: 40, ClaimNs: 10,
		PlanStoreNs: 1500, SpawnUs: 1,
		KernelNsPerFlop: 2,
	}
	if got, want := c.TiledFixedNs(1000, 100), 10.0*1000+50*100+1500+1000; got != want {
		t.Errorf("TiledFixedNs = %v, want %v", got, want)
	}
	// Two workers save half the kernel time: 17500 ns / (2 ns · ½).
	if got, want := c.TileCrossover(1000, 100, 2), 17500.0; got != want {
		t.Errorf("TileCrossover = %v, want %v", got, want)
	}
	if !math.IsInf(c.TileCrossover(1000, 100, 1), 1) {
		t.Error("one worker must never break even")
	}
	base := c.TileCrossover(1000, 100, 2)
	if c.TileCrossover(2000, 100, 2) <= base || c.TileCrossover(1000, 200, 2) <= base {
		t.Error("more rows or tiles must raise the crossover")
	}
	if c.TileCrossover(1000, 100, 4) >= base {
		t.Error("more workers must lower the crossover")
	}
	slow := c
	slow.KernelNsPerFlop *= 2
	if slow.TileCrossover(1000, 100, 2) >= base {
		t.Error("a slower kernel must lower the crossover")
	}
	if d := DerivedTileCrossover(); d&(d-1) != 0 || float64(d) < ReferenceTileCosts.TileCrossover(referenceRows, referenceTiles, referenceWorkers) {
		t.Errorf("DerivedTileCrossover = %d, want the derivation rounded up to a power of two", d)
	}
}
