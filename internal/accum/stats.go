package accum

// Stats are the accumulator-side observability counters. Clears, Grows
// and Spills are always counted (they are rare, per-row-at-worst events);
// Probes and Collisions touch the hash accumulator's innermost loop and
// are only counted after EnableStats, so the un-instrumented hot path
// pays a single predictable nil-check per probe — per batch in Scatter
// and ScatterMasked, which count in locals and flush once per call.
type Stats struct {
	// Clears counts full state resets forced by marker overflow — the
	// Fig. 13 bit-width trade-off.
	Clears int64
	// Grows counts hash-table doublings (a row exceeded the sizing bound).
	Grows int64
	// Spills counts rows a windowed dense accumulator routed to its
	// spill table (the row's mask spanned more columns than the window).
	Spills int64
	// Probes counts probe sequences (one per LoadMask/Update/Gather
	// lookup and per Scatter/ScatterMasked entry). Zero unless
	// EnableStats was called.
	Probes int64
	// Collisions counts probe steps past the home slot. Zero unless
	// EnableStats was called.
	Collisions int64
}

// Sub returns the counter delta s − prev, for isolating one run of an
// accumulator that is reused across runs.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Clears:     s.Clears - prev.Clears,
		Grows:      s.Grows - prev.Grows,
		Spills:     s.Spills - prev.Spills,
		Probes:     s.Probes - prev.Probes,
		Collisions: s.Collisions - prev.Collisions,
	}
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.Clears += o.Clears
	s.Grows += o.Grows
	s.Spills += o.Spills
	s.Probes += o.Probes
	s.Collisions += o.Collisions
}

// Instrumented is implemented by every accumulator in this package: the
// kernel enables per-probe counting when a recorder is attached and
// snapshots the counters around each run. Families without a hash table
// (or without markers) report zeros for the fields they lack.
type Instrumented interface {
	// EnableStats turns on the gated counters (hash probes/collisions).
	// Idempotent; counting stays enabled for the accumulator's lifetime.
	EnableStats()
	// AccumStats returns the cumulative counters.
	AccumStats() Stats
}
