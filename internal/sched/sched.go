// Package sched runs tiles on a fixed pool of worker goroutines with
// static, dynamic or guided assignment — the Go analogue of OpenMP's
// schedule(static), schedule(dynamic) and schedule(guided) that the
// paper sweeps (§III-A, Fig. 11).
//
// Static: tile t is owned by worker t mod P, decided before execution;
// no coordination at runtime, but a slow tile stalls its owner.
// Dynamic: workers pull the next unclaimed tile from a shared atomic
// counter; balance is recovered at the cost of one atomic op per tile.
// Guided: workers claim geometrically shrinking chunks of tiles —
// remaining/P per claim, at least one tile — so the early claims are
// large and cheap while the tail stays fine-grained; at the paper's
// 32768-tile end this cuts the per-tile atomic traffic that Dynamic
// pays without giving up runtime balance.
//
// Tiles may carry dependencies: a WavePlan orders the tile space into
// waves (levels of mutually independent tiles) separated by completion
// barriers, and RunWavesOpts (wave.go) executes such plans on a single
// persistent worker pool that claims tiles within each wave under the
// same three policies and crosses wave boundaries without respawning
// goroutines. The flat tile bag is the degenerate plan SingleWave(n),
// so there is one tile executor; RunWavesE is it with the zero RunOpts.
//
// BlocksE, the parallel-for over contiguous index blocks that the O(n)
// passes (work estimation, prefix sums, mask scan, CSR assembly) and
// betweenness centrality's source blocks use, is a Static run of
// SingleWave(p) on that executor, in which worker w owns block w; the
// passes share one serial cutoff, BlockWorkers. Every run contains
// worker panics and observes an optional context, and a multi-worker
// run is one run value handed to parked helper goroutines (helpers.go),
// so a warm run starts no goroutine and allocates that value alone.
package sched

import "runtime"

// Policy selects how tiles are assigned to workers.
type Policy int

const (
	// Static assigns tiles round-robin to workers before execution.
	Static Policy = iota
	// Dynamic lets workers claim tiles from a shared queue at runtime.
	Dynamic
	// Guided lets workers claim geometrically shrinking chunks of tiles
	// (remaining/P each, at least one) from the shared
	// counter — OpenMP's schedule(guided).
	Guided
)

func (p Policy) String() string {
	switch p {
	case Static:
		return "Static"
	case Dynamic:
		return "Dynamic"
	case Guided:
		return "Guided"
	default:
		return "Unknown"
	}
}

// Workers resolves a requested worker count to the count a run will
// actually use: w itself when positive, otherwise GOMAXPROCS at call
// time (the paper pins one thread per core). The result is always at
// least 1, so zero and negative requests are safe everywhere a worker
// count is taken; entry points additionally clamp the result to the
// available parallelism (tile count, or widest wave of a WavePlan).
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// GuidedChunk returns the chunk size a guided claim takes when rem tiles
// remain on p workers: rem/p, at least 1, clamped to what is left —
// OpenMP's schedule(guided). Exposed so tests can verify the geometric
// decay without racing on the shared counter.
//
//spgemm:hotpath
func GuidedChunk(rem, p int) int {
	if rem <= 0 {
		return 0
	}
	return max(rem/p, 1)
}
