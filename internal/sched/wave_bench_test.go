package sched

import (
	"testing"
	"time"
)

// BenchmarkWaveCrossing prices the two fixed costs of a wave run on two
// workers, the solve verdict's solveSpawnNs and solveCrossingNs
// (internal/core/solve.go):
//
//   - spawn is one single-wave run of one empty tile per worker: the
//     launch and join of the run's workers (ns/op);
//   - staggered is one barrier crossing whose arrivals are apart. Every
//     wave gives each worker one tile; one busy-waits late, the other
//     late/2, the roles alternating from wave to wave. The early worker
//     parks at the barrier, and the last arriver opens it and goes
//     straight on to its next tile, as a solve's waker goes on to claim
//     the next wave's tiles — so the parked worker resumes only once
//     another processor picks it up, or once the waker runs out of work.
//     ns/crossing is the run's time less one late per wave, per crossing:
//     how long the late role waits to start. The ledger's
//     sched.barrier_ns crosses with empty tiles, all arrivals together,
//     and never parks.
//
// late is 50 µs, the order of a corpus solve's wave (arabic-2005-sim's
// average ~42 µs at p = 2).
func BenchmarkWaveCrossing(b *testing.B) {
	const p = 2
	b.Run("spawn", func(b *testing.B) {
		plan := SingleWave(p)
		noop := func(_, _ int) {}
		for i := 0; i < b.N; i++ {
			if err := RunWavesE(nil, Static, p, plan, noop); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("staggered", func(b *testing.B) {
		const (
			waves = 64
			late  = 50 * time.Microsecond
		)
		ws := make([]Wave, waves)
		for w := range ws {
			ws[w] = Wave{Lo: w * p, Hi: (w + 1) * p}
		}
		plan, err := NewWavePlan(ws)
		if err != nil {
			b.Fatal(err)
		}
		// Static ownership gives worker w tile w of every wave; the late
		// tile of wave k belongs to worker k mod p.
		fn := func(worker, tile int) {
			d := late / 2
			if worker == (tile/p)%p {
				d = late
			}
			for start := time.Now(); time.Since(start) < d; {
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := RunWavesE(nil, Static, p, plan, fn); err != nil {
				b.Fatal(err)
			}
		}
		busy := time.Duration(b.N) * waves * late
		b.ReportMetric(float64(b.Elapsed()-busy)/float64(b.N*(waves-1)), "ns/crossing")
	})
}
