package model

import "math"

// RoundCosts are the medians of the root package's
// BenchmarkGraphAlgorithms/KTruss/rounds sub-benchmarks, which force
// every k-truss round after the first full (rounds/full) or delta
// (rounds/delta) and time the symmetry check (rounds/symmetry).
type RoundCosts struct {
	FullNsPerVisit, FullProbesPerVisit   float64
	DeltaNsPerVisit, DeltaProbesPerVisit float64
	SymmetryNsPerNNZ                     float64
}

// ReferenceRoundCosts are the medians of nine runs on the 2-vCPU
// reference host.
var ReferenceRoundCosts = RoundCosts{
	FullNsPerVisit: 67.21, FullProbesPerVisit: 12.02,
	DeltaNsPerVisit: 27.15, DeltaProbesPerVisit: 2.379,
	SymmetryNsPerNNZ: 5.486,
}

// Split solves ns/visit = visit + probe·probes/visit, once per kind of
// round, for the cost of a visit and of a probe: both kinds run the same
// kernel, so they pay alike.
func (c RoundCosts) Split() (visit, probe float64) {
	probe = (c.FullNsPerVisit - c.DeltaNsPerVisit) / (c.FullProbesPerVisit - c.DeltaProbesPerVisit)
	return c.DeltaNsPerVisit - probe*c.DeltaProbesPerVisit, probe
}

// DerivedRoundWeights are the values graph's round rule must price a
// probe and a checked entry at, in visits (graph.RoundWeights), rounded
// to the nearest 0.05: the medians move by about that much between runs.
func DerivedRoundWeights() (probe, symmetry float64) {
	visit, p := ReferenceRoundCosts.Split()
	round := func(x float64) float64 { return math.Round(x*20) / 20 }
	return round(p / visit), round(ReferenceRoundCosts.SymmetryNsPerNNZ / visit)
}
