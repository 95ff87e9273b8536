package spgemm

import (
	"context"
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// kernels is one semiring's instantiation of every core entry point
// the facade dispatches on Options.Semiring: a new entry point is one
// field here and one line in kernelsFor, a new semiring one row of
// semiringKernels.
type kernels struct {
	masked, comp                  func(m, a, b *sparse.CSR[float64], cfg core.Config) (*sparse.CSR[float64], error)
	fused                         func(m1, a, b, m2, c *sparse.CSR[float64], cfg core.Config) (*sparse.CSR[float64], error)
	unmasked, ewiseAdd, ewiseMult func(a, b *sparse.CSR[float64]) (*sparse.CSR[float64], error)
}

func kernelsFor[S semiring.Semiring[float64]](sr S) kernels {
	return kernels{
		masked: func(m, a, b *sparse.CSR[float64], cfg core.Config) (*sparse.CSR[float64], error) {
			return core.MaskedSpGEMM[float64](sr, m, a, b, cfg)
		},
		comp: func(m, a, b *sparse.CSR[float64], cfg core.Config) (*sparse.CSR[float64], error) {
			return core.MaskedSpGEMMComp[float64](sr, m, a, b, cfg)
		},
		fused: func(m1, a, b, m2, c *sparse.CSR[float64], cfg core.Config) (*sparse.CSR[float64], error) {
			return core.FusedMaskedSpGEMM[float64](sr, m1, a, b, m2, c, cfg)
		},
		unmasked: func(a, b *sparse.CSR[float64]) (*sparse.CSR[float64], error) {
			return core.SpGEMM[float64](sr, a, b)
		},
		ewiseAdd: func(a, b *sparse.CSR[float64]) (*sparse.CSR[float64], error) {
			return core.EWiseAdd[float64](sr, a, b)
		},
		ewiseMult: func(a, b *sparse.CSR[float64]) (*sparse.CSR[float64], error) {
			return core.EWiseMult[float64](sr, a, b)
		},
	}
}

// semiringKernels is indexed by Semiring. The element-wise operations
// have no structural variant: under SRPlusPair they combine values as
// SRPlusTimes does.
var semiringKernels = func() [3]kernels {
	plusTimes := kernelsFor(semiring.PlusTimes[float64]{})
	plusPair := kernelsFor(semiring.PlusPair[float64]{})
	plusPair.ewiseAdd, plusPair.ewiseMult = plusTimes.ewiseAdd, plusTimes.ewiseMult
	return [3]kernels{
		SRPlusTimes: plusTimes,
		SRPlusPair:  plusPair,
		SROrAnd:     kernelsFor(semiring.OrAnd[float64]{}),
	}
}()

// kernels resolves the options' semiring, which validate has checked.
func (o Options) kernels() *kernels {
	return &semiringKernels[o.Semiring]
}

// mask returns the mask the kernels run under: m itself for a
// structural mask, m without its stored zeros under Options.ValuedMask.
func (o Options) mask(m *Matrix) *Matrix {
	if !o.ValuedMask {
		return m
	}
	return wrap(sparse.PruneZeros(m.csr))
}

// MxM computes C = mask ⊙ (a × b): the masked sparse matrix-matrix
// product over the semiring selected in opts. The mask is structural
// unless Options.ValuedMask is set.
//
// Shape requirements: a is m×k, b is k×n, mask is m×n.
//
// With Options.Retry set, transient failures (ErrPanic, ErrStalled,
// injected faults) are re-attempted on progressively degraded execution
// paths — see Retry.
func MxM(mask, a, b *Matrix, opts Options) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	if err := opts.validate(namedOperand{"mask", mask}, namedOperand{"a", a}, namedOperand{"b", b}); err != nil {
		return nil, err
	}
	mask = opts.mask(mask)
	c, err := opts.retry(func(o Options) (*sparse.CSR[float64], error) {
		return mxmAttempt(mask, a, b, o)
	})
	if err != nil {
		return nil, err
	}
	return wrap(c), nil
}

// mxmAttempt runs one execution attempt of the masked product under the
// (possibly degraded) options, containing panics on the caller's own
// goroutine so the retry ladder can classify them. Failed attempts
// never feed the κ estimator.
func mxmAttempt(mask, a, b *Matrix, opts Options) (_ *sparse.CSR[float64], err error) {
	var rc *model.Recalibrator
	// Registered before the recover guard so it runs after it (LIFO):
	// by then a contained panic has been converted into err, and the
	// armed κ proposal is discarded instead of pairing with a later run.
	defer func() {
		if err != nil {
			rc.ObserveFailure()
		}
	}()
	defer recoverAsError(&err)
	cfg := opts.config()
	rc = opts.recalibrator(mask, a, b)
	if rc != nil {
		cfg.Kappa = rc.Propose()
	}
	start := time.Now()
	c, err := opts.kernels().masked(mask.csr, a.csr, b.csr, cfg)
	if err != nil {
		return nil, err
	}
	observeRecal(rc, opts.recorder(), start)
	return c, nil
}

// recalibrator resolves the online-κ estimator for this call's operand
// family, or nil when adaptation is off (no AdaptiveKappa, or no Engine
// to persist state on).
func (o Options) recalibrator(mask, a, b *Matrix) *model.Recalibrator {
	if !o.AdaptiveKappa {
		return nil
	}
	return model.TuneFor(o.Engine.internal(), mask.csr, a.csr, b.csr, o.Kappa)
}

// observeRecal feeds one timed run back into the estimator, preferring
// the run-scoped per-run stats (FLOP-normalized cost) when a recorder
// is attached. The counter delta lands in the recorder's recal block.
func observeRecal(rc *model.Recalibrator, rec *obs.Recorder, start time.Time) {
	if rc == nil {
		return
	}
	var st obs.Stats
	if snap, ok := rec.LastRun(); ok {
		st = snap
	}
	rec.AddRecal(rc.Observe(time.Since(start).Seconds(), st))
}

// MxMChain computes the chained masked product
//
//	D = m2 ⊙ ((m1 ⊙ (a × b)) × c)
//
// — two dependent masked multiplies in one call. With Options.Fuse set
// the intermediate product m1 ⊙ (a×b) is never materialized: each
// FLOP-balanced output tile of the first multiply is staged in
// workspace buffers (up to 1 MiB per tile, degrading to row streaming
// beyond it) and consumed by the second multiply while hot. Without
// Fuse the chain runs as two ordinary MxM calls. Both paths return
// bit-identical results.
//
// Shape requirements: a is m×k, b is k×n, m1 is m×n, c is n×q, m2 is
// m×q.
func MxMChain(m1, a, b, m2, c *Matrix, opts Options) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	if err := opts.validate(namedOperand{"m1", m1}, namedOperand{"a", a}, namedOperand{"b", b},
		namedOperand{"m2", m2}, namedOperand{"c", c}); err != nil {
		return nil, err
	}
	m1, m2 = opts.mask(m1), opts.mask(m2)
	if !opts.Fuse {
		inner := opts
		inner.ValidateInputs = false
		inner.ValuedMask = false
		mid, err := MxM(m1, a, b, inner)
		if err != nil {
			return nil, err
		}
		return MxM(m2, mid, c, inner)
	}
	// The fused path rides the same retry ladder as MxM: rung one
	// retries the fused pipeline serially, rung two drops Fuse — the
	// fused→staged degradation — and reruns as two ordinary multiplies
	// with fresh unpooled buffers.
	d, err := opts.retry(func(o Options) (*sparse.CSR[float64], error) {
		if o.Fuse {
			return fusedChainAttempt(m1, a, b, m2, c, o)
		}
		inner := o
		inner.ValidateInputs = false
		inner.ValuedMask = false
		inner.Retry = Retry{} // the outer loop owns the attempt budget
		mid, err := MxM(m1, a, b, inner)
		if err != nil {
			return nil, err
		}
		out, err := MxM(m2, mid, c, inner)
		if err != nil {
			return nil, err
		}
		return out.csr, nil
	})
	if err != nil {
		return nil, err
	}
	return wrap(d), nil
}

// fusedChainAttempt runs one attempt of the fused chained product,
// containing panics so the retry ladder can classify them.
func fusedChainAttempt(m1, a, b, m2, c *Matrix, opts Options) (_ *sparse.CSR[float64], err error) {
	defer recoverAsError(&err)
	return opts.kernels().fused(m1.csr, a.csr, b.csr, m2.csr, c.csr, opts.config())
}

// MxMComplement computes C = ¬mask ⊙ (a × b): the product restricted to
// positions the mask does NOT allow — GraphBLAS's complemented mask,
// structural unless Options.ValuedMask is set. Note the output is
// bounded by the product structure, not by the mask, so this kernel
// always pays the full multiplication.
func MxMComplement(mask, a, b *Matrix, opts Options) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	if err := opts.validate(namedOperand{"mask", mask}, namedOperand{"a", a}, namedOperand{"b", b}); err != nil {
		return nil, err
	}
	c, err := opts.kernels().comp(opts.mask(mask).csr, a.csr, b.csr, opts.config())
	if err != nil {
		return nil, err
	}
	return wrap(c), nil
}

// MxMUnmasked computes the plain sparse product C = a × b (no mask).
// It is single-threaded and intended for correctness checks and small
// problems; the masked kernel is the optimized path.
func MxMUnmasked(a, b *Matrix, opts Options) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	if err := opts.validate(namedOperand{"a", a}, namedOperand{"b", b}); err != nil {
		return nil, err
	}
	c, err := opts.kernels().unmasked(a.csr, b.csr)
	if err != nil {
		return nil, err
	}
	return wrap(c), nil
}

// Multiplier holds one masked product — operands and Options — for
// repeating: Multiply is MxM(mask, a, b, opts) on the Options' Engine,
// or on a private Engine the Multiplier creates when the Options carry
// none. The Engine is where the reuse lives: the plan is cached at
// construction (a product below the tile crossover has a one-tile
// plan, rebuilt per call and never cached) and every Multiply checks a
// pooled workspace out, so a warm loop allocates only its result.
// Iterative algorithms over a fixed graph and benchmark loops should
// prefer it over repeated engineless MxM calls.
//
// Concurrent Multiply calls on one Multiplier are safe: each checks
// out a private workspace. A Multiply call that fails (ErrCanceled,
// ErrPanic) leaves the Multiplier intact: it can run again once the
// cause is resolved. The operands must not be mutated while the
// Multiplier is in use.
type Multiplier struct {
	mask, a, b *Matrix
	opts       Options
}

// NewMultiplier prepares C = mask ⊙ (a × b) for repeating: the operands
// are validated (under Options.ValidateInputs), a valued mask is pruned
// and the plan is resolved into the engine's cache, once, so shape,
// configuration and cancellation errors surface here and not at the
// first Multiply. A product below the tile crossover is only checked:
// its one-tile plan is never cached, each Multiply rebuilds it. Plan
// construction observes opts.Context, which is also the context every
// Multiply runs under.
func NewMultiplier(mask, a, b *Matrix, opts Options) (_ *Multiplier, err error) {
	defer recoverAsError(&err)
	if err := opts.validate(namedOperand{"mask", mask}, namedOperand{"a", a}, namedOperand{"b", b}); err != nil {
		return nil, err
	}
	// Pruned here and held, so every Multiply presents the plan cache
	// with the same mask.
	mask = opts.mask(mask)
	opts.ValidateInputs, opts.ValuedMask = false, false
	if opts.Engine == nil {
		opts.Engine = NewEngine(EngineConfig{})
	}
	if _, err := core.Prepare(mask.csr, a.csr, b.csr, opts.config()); err != nil {
		return nil, err
	}
	return &Multiplier{mask: mask, a: a, b: b, opts: opts}, nil
}

// Multiply runs the product and returns a fresh result matrix, under
// the Options' Context the Multiplier was built with (nil = run to
// completion).
func (mu *Multiplier) Multiply() (*Matrix, error) {
	return mu.MultiplyContext(nil)
}

// MultiplyContext is Multiply under ctx, overriding the Multiplier's
// own context; nil falls back to it. Everything MxM does under the
// Multiplier's Options applies: Options.AdaptiveKappa proposes a κ and
// feeds the measured run back — a warm Multiply loop is exactly the
// feedback loop the online recalibration adapts in — and Options.Retry
// re-attempts transient failures down the degradation ladder.
func (mu *Multiplier) MultiplyContext(ctx context.Context) (*Matrix, error) {
	opts := mu.opts
	if ctx != nil {
		opts.Context = ctx
	}
	return MxM(mu.mask, mu.a, mu.b, opts)
}

// LastStats returns the observability snapshot of the most recent
// successful run recorded by the Multiplier's recorder — the run's own
// scoped spans and counters, isolated by its multiply sequence id
// rather than by subtracting recorder totals (which double-counts when
// runs overlap). ok is false when the Multiplier was built without a
// StatsRecorder or the recorder has seen no run yet. The snapshot
// belongs to the recorder: Multipliers (and MxM calls) sharing one
// StatsRecorder share its last run.
func (mu *Multiplier) LastStats() (_ KernelStats, ok bool) {
	return mu.opts.recorder().LastRun()
}

// EWiseAdd returns the element-wise union a ⊕ b: coinciding entries
// combine with the semiring's additive operation, entries present in
// only one operand carry over unchanged.
func EWiseAdd(a, b *Matrix, opts Options) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	if err := opts.validate(namedOperand{"a", a}, namedOperand{"b", b}); err != nil {
		return nil, err
	}
	c, err := opts.kernels().ewiseAdd(a.csr, b.csr)
	if err != nil {
		return nil, err
	}
	return wrap(c), nil
}

// EWiseMult returns the element-wise intersection a ⊗ b: only
// coinciding entries survive, combined with the semiring's
// multiplicative operation (Hadamard product under SRPlusTimes).
func EWiseMult(a, b *Matrix, opts Options) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	if err := opts.validate(namedOperand{"a", a}, namedOperand{"b", b}); err != nil {
		return nil, err
	}
	c, err := opts.kernels().ewiseMult(a.csr, b.csr)
	if err != nil {
		return nil, err
	}
	return wrap(c), nil
}

// ReduceRows folds each row with + and returns one value per non-empty
// row as parallel (index, value) slices.
func ReduceRows(m *Matrix) ([]int32, []float64) {
	v := core.ReduceRows[float64](semiring.PlusTimes[float64]{}, m.csr)
	return v.Idx, v.Val
}

// ApplyMask returns mask ⊙ c: the entries of c at positions stored in
// mask. Together with MxMUnmasked it forms the two-step computation the
// fused MxM is measured against.
func ApplyMask(mask, c *Matrix) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	out, err := core.ApplyMask(mask.csr, c.csr)
	if err != nil {
		return nil, err
	}
	return wrap(out), nil
}
