// Package core implements the paper's primary contribution: a
// parameterized row-wise saxpy masked-SpGEMM kernel,
//
//	C = M ⊙ (A × B)
//
// exposing every design dimension of the study as an explicit knob:
//
//   - iteration space: Vanilla (Fig. 3), MaskLoad (Fig. 5, GrB's
//     algorithm), CoIter (Fig. 7), Hybrid (Fig. 9, push-pull with
//     co-iteration factor κ);
//   - tiling: uniform vs FLOP-balanced, any tile count;
//   - scheduling: static, dynamic or guided over a goroutine worker
//     pool;
//   - accumulator: dense or hash (by default derived per product from
//     the column count and the row capacity), marker widths
//     8/16/32/64 bits, or explicit-reset variants.
//
// The public facade (package spgemm) runs DefaultConfig with only the
// worker count and the run's extras its own; the other knobs are the
// study's, swept by spgemm-bench and cmd/trianglecount.
//
// The kernel is generic over the value type and semiring, so the same
// code serves arithmetic, Boolean, tropical and structural (pair)
// algebras.
package core

import (
	"context"
	"fmt"
	"math/bits"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/tiling"
)

// IterationSpace selects how the multiplication and the masking
// operation are traversed together (paper §III-B).
type IterationSpace int

const (
	// Vanilla accumulates the full unmasked product of each row and
	// intersects with the mask afterwards (Fig. 3). Large buffers, many
	// wasted operations — the baseline the better spaces are measured
	// against.
	Vanilla IterationSpace = iota
	// MaskLoad loads the mask row into the accumulator first and filters
	// every candidate update against it (Fig. 5). This is the GrB
	// algorithm, now also used by SuiteSparse:GraphBLAS.
	MaskLoad
	// CoIter iterates the mask row and binary-searches each B row for
	// the mask's columns (Fig. 7). Wins when nnz(M[i,:]) is small
	// relative to nnz(B[k,:]); loses badly otherwise.
	CoIter
	// Hybrid chooses per (i,k) between the MaskLoad linear scan and
	// CoIter using the Eq. 3 cost model with factor Kappa (Fig. 9) — the
	// paper's push-pull optimization.
	Hybrid
)

func (s IterationSpace) String() string {
	switch s {
	case Vanilla:
		return "Vanilla"
	case MaskLoad:
		return "MaskLoad"
	case CoIter:
		return "CoIter"
	case Hybrid:
		return "Hybrid"
	default:
		return "Unknown"
	}
}

// Config is the full tuning surface of the kernel. The zero value is not
// valid; start from DefaultConfig.
type Config struct {
	// Iteration selects the iteration space (§III-B).
	Iteration IterationSpace
	// Kappa is the co-iteration factor κ of Fig. 9: co-iterate when
	// nnz(M[i,:])·log2(nnz(B[k,:])) < κ·nnz(B[k,:]). Only used by Hybrid.
	Kappa float64
	// Accumulator selects the accumulator family (§III-C). AutoKind
	// leaves dense-or-hash to the planner, per product
	// (DeriveAccumulator).
	Accumulator accum.Kind
	// MarkerBits is the marker word width for marker-based accumulators:
	// 8, 16, 32 or 64 (Fig. 13).
	MarkerBits int
	// Tiles is the requested number of row tiles (Fig. 11 sweeps 64 to
	// 32768): clamped to the number of rows and, for a product below the
	// work crossover (see UntiledWork), to one.
	Tiles int
	// Tiling selects uniform vs FLOP-balanced tile boundaries (§III-A).
	Tiling tiling.Strategy
	// Schedule selects static, dynamic or guided tile-to-worker
	// assignment.
	Schedule sched.Policy
	// Workers is the requested worker-pool size; 0 means GOMAXPROCS. A
	// run uses no more workers than its plan has tiles, so a product
	// below the work crossover runs on the caller's goroutine alone.
	// graph.BetweennessCentrality splits its sources across this many
	// workers.
	Workers int
	// Context, when non-nil, cancels or deadline-bounds the
	// multiplication: the scheduler observes it between tile claims and
	// between plan blocks, and a cancelled run returns ErrCanceled
	// (wrapping the context's error) instead of completing. A nil
	// Context runs to completion with no cancellation machinery.
	Context context.Context
	// Engine, when non-nil, supplies pooled execution workspaces
	// (accumulators, tile output buffers, dense scratch) and a
	// fingerprint-keyed plan cache shared across runs and callers. With
	// an Engine, repeated products over unchanged operand structure skip
	// planning, warm runs allocate no workspace state, and independent
	// concurrent multiplications through the shared Engine are safe. A
	// nil Engine reproduces the one-shot behavior: every run constructs
	// (and discards) its own workspace. graph.BetweennessCentrality
	// takes nothing from it.
	Engine *exec.Engine
	// Resilience, when non-nil, arms the failure-hardening extras: the
	// fault-injection seams and the scheduler's stall watchdog. It is a
	// pointer deliberately — the production configuration carries (and
	// every per-run Config copy and closure capture pays for) only a
	// nil word. See Resilience.
	Resilience *Resilience
	// Recorder, when non-nil, collects observability data for every run
	// under this configuration: phase spans (plan row-work/prefix-sum/
	// tile-build/row-cap, exec kernel/assembly), exact per-worker
	// counters (tiles, rows, Eq. 2 FLOPs, hybrid co-iterate vs linear
	// picks, gathered entries), accumulator statistics (marker
	// overflows, hash probe traffic), plus runtime/trace tile regions.
	// A nil Recorder disables all of it; the disabled path is a
	// nil-check and allocates nothing. graph.BetweennessCentrality runs
	// no product and records nothing.
	Recorder *obs.Recorder
}

// DefaultConfig is the paper's recommended configuration (§V): 2048
// FLOP-balanced tiles, dynamic scheduling, hybrid iteration with κ = 1,
// 32-bit markers, and the accumulator family the planner derives per
// product.
func DefaultConfig() Config {
	return Config{
		Iteration:   Hybrid,
		Kappa:       1,
		Accumulator: accum.AutoKind,
		MarkerBits:  32,
		Tiles:       2048,
		Tiling:      tiling.FlopBalanced,
		Schedule:    sched.Dynamic,
		Workers:     0,
	}
}

// Validate reports whether the configuration is runnable. Every
// rejection wraps ErrConfig. Validate covers the full enum surface —
// iteration space, accumulator kind, marker width, schedule policy and
// tiling strategy — so the panic sites those enums would otherwise
// reach deeper in the stack (sched, tiling, accum dispatch) are
// unreachable for any Config that passed this check.
func (c Config) Validate() error {
	switch c.Iteration {
	case Vanilla, MaskLoad, CoIter, Hybrid:
	default:
		return errConfig("unknown iteration space %d", c.Iteration)
	}
	switch c.Accumulator {
	case accum.DenseKind, accum.HashKind, accum.AutoKind:
		switch c.MarkerBits {
		case 8, 16, 32, 64:
		default:
			return errConfig("marker bits must be 8/16/32/64, got %d", c.MarkerBits)
		}
	case accum.DenseExplicitKind, accum.HashExplicitKind:
	default:
		return errConfig("unknown accumulator kind %d", c.Accumulator)
	}
	switch c.Schedule {
	case sched.Static, sched.Dynamic, sched.Guided:
	default:
		return errConfig("unknown schedule policy %d", c.Schedule)
	}
	switch c.Tiling {
	case tiling.Uniform, tiling.FlopBalanced:
	default:
		return errConfig("unknown tiling strategy %d", c.Tiling)
	}
	if c.Tiles < 1 {
		return errConfig("tiles must be >= 1, got %d", c.Tiles)
	}
	if c.Iteration == Hybrid && !(c.Kappa > 0) {
		return errConfig("hybrid iteration needs kappa > 0, got %v", c.Kappa)
	}
	if c.Workers < 0 {
		return errConfig("workers must be >= 0, got %d", c.Workers)
	}
	if c.Resilience != nil && c.Resilience.StallTimeout < 0 {
		return errConfig("stall timeout must be >= 0, got %v", c.Resilience.StallTimeout)
	}
	return nil
}

// runWorkers resolves the worker count of a run over a plan of the
// given tile count: the configured width clamped to the tiles, since a
// worker beyond them has nothing to claim. The one-tile plan of a
// product below the work crossover therefore runs on one worker — the
// scheduler's inline path on the caller's goroutine — with one
// accumulator and one staging buffer.
func (c Config) runWorkers(tiles int) int {
	return max(1, min(sched.Workers(c.Workers), tiles))
}

// String renders the configuration compactly for experiment logs.
func (c Config) String() string {
	s := fmt.Sprintf("%v/%v mb=%d tiles=%d %v %v w=%d",
		c.Iteration, c.Accumulator, c.MarkerBits, c.Tiles, c.Tiling, c.Schedule, c.Workers)
	if c.Iteration == Hybrid {
		s += fmt.Sprintf(" κ=%g", c.Kappa)
	}
	return s
}

// log2ceil returns ⌈log2(n)⌉ for n ≥ 1 (0 for n ≤ 1); the cost model of
// Eq. 3 uses it as the binary-search cost.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// coIterCheaper evaluates Eq. 3 against the linear-scan cost: true when
// nnzM·log2(nnzB) < κ·nnzB.
//
//spgemm:hotpath
func coIterCheaper(nnzM, nnzB int, kappa float64) bool {
	return float64(nnzM*log2ceil(nnzB)) < kappa*float64(nnzB)
}
