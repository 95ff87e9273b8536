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
// remaining/P per claim, never below a floor — so the early claims are
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
// The package also provides BlocksE, a one-shot parallel-for over
// contiguous index blocks, which the plan-construction phases (work
// estimation, prefix sums, CSR assembly) use to spread their O(n)
// passes over the same worker pool discipline. All three entry points
// contain worker panics and observe an optional context.
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
	// (remaining/P each, bounded below by a chunk floor) from the shared
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

// StaticOwner returns the worker id that owns tile t under the Static
// policy with p workers: t mod p, the round-robin assignment decided
// before execution. The invariant holds across wave boundaries too —
// the wave executor offsets each worker's first tile within a wave so
// global ownership never shifts. p must be positive (the clamped worker
// count an entry point actually ran with, not the raw request).
// Exposed so tests can verify assignment.
func StaticOwner(t, p int) int { return t % p }
