package spgemm

import (
	"context"
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// planP resolves the worker count used for input validation, matching
// the kernel's plan-phase parallelism.
func (o Options) planP() int {
	if o.PlanWorkers > 0 {
		return sched.Workers(o.PlanWorkers)
	}
	return sched.Workers(o.Workers)
}

// MxM computes C = mask ⊙ (a × b): the masked sparse matrix-matrix
// product over the semiring selected in opts. The mask is structural.
//
// Shape requirements: a is m×k, b is k×n, mask is m×n.
//
// With Options.Retry set, transient failures (ErrPanic, ErrStalled,
// injected faults) are re-attempted on progressively degraded execution
// paths — see Retry.
func MxM(mask, a, b *Matrix, opts Options) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	if opts.ValidateInputs {
		if err := validateInputs(opts.planP(),
			namedOperand{"mask", mask}, namedOperand{"a", a}, namedOperand{"b", b}); err != nil {
			return nil, err
		}
	}
	if opts.ValuedMask {
		mask = wrap(sparse.PruneZeros(mask.csr))
	}
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
	var c *sparse.CSR[float64]
	switch opts.Semiring {
	case SRPlusPair:
		c, err = core.MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, mask.csr, a.csr, b.csr, cfg)
	case SROrAnd:
		c, err = core.MaskedSpGEMM[float64](semiring.OrAnd[float64]{}, mask.csr, a.csr, b.csr, cfg)
	default:
		c, err = core.MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, mask.csr, a.csr, b.csr, cfg)
	}
	if err != nil {
		return nil, err
	}
	observeRecal(rc, opts.recorder(), start)
	return c, nil
}

// recalibrator resolves the online-κ estimator for this call's operand
// family, or nil when adaptation is off (no AdaptiveKappa, no Engine to
// persist state on, or a non-hybrid iteration space where κ is unused).
func (o Options) recalibrator(mask, a, b *Matrix) *model.Recalibrator {
	if !o.AdaptiveKappa || o.Iteration != IterHybrid {
		return nil
	}
	return model.TuneFor(o.Engine.internal(), mask.csr, a.csr, b.csr,
		model.RecalConfig{DefaultKappa: o.Kappa})
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
// workspace buffers (bounded by Options.FuseTileBudget, degrading to
// row streaming beyond it) and consumed by the second multiply while
// hot. Without Fuse the chain runs as two ordinary MxM calls. Both
// paths return bit-identical results.
//
// Shape requirements: a is m×k, b is k×n, m1 is m×n, c is n×q, m2 is
// m×q.
func MxMChain(m1, a, b, m2, c *Matrix, opts Options) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	if opts.ValidateInputs {
		if err := validateInputs(opts.planP(),
			namedOperand{"m1", m1}, namedOperand{"a", a}, namedOperand{"b", b},
			namedOperand{"m2", m2}, namedOperand{"c", c}); err != nil {
			return nil, err
		}
	}
	if opts.ValuedMask {
		m1 = wrap(sparse.PruneZeros(m1.csr))
		m2 = wrap(sparse.PruneZeros(m2.csr))
	}
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
	cfg := opts.config()
	var d *sparse.CSR[float64]
	switch opts.Semiring {
	case SRPlusPair:
		d, err = core.FusedMaskedSpGEMM[float64](semiring.PlusPair[float64]{},
			m1.csr, a.csr, b.csr, m2.csr, c.csr, cfg)
	case SROrAnd:
		d, err = core.FusedMaskedSpGEMM[float64](semiring.OrAnd[float64]{},
			m1.csr, a.csr, b.csr, m2.csr, c.csr, cfg)
	default:
		d, err = core.FusedMaskedSpGEMM[float64](semiring.PlusTimes[float64]{},
			m1.csr, a.csr, b.csr, m2.csr, c.csr, cfg)
	}
	return d, err
}

// MxMContext is MxM under an explicit context: the multiplication is
// cooperatively cancelled when ctx is done, returning an error matching
// ErrCanceled. A non-nil opts.Context is overridden by ctx.
func MxMContext(ctx context.Context, mask, a, b *Matrix, opts Options) (*Matrix, error) {
	opts.Context = ctx
	return MxM(mask, a, b, opts)
}

// MxMComplement computes C = ¬mask ⊙ (a × b): the product restricted to
// positions the mask does NOT store — GraphBLAS's complemented
// structural mask. Note the output is bounded by the product structure,
// not by the mask, so this kernel always pays the full multiplication.
func MxMComplement(mask, a, b *Matrix, opts Options) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	if opts.ValidateInputs {
		if err := validateInputs(opts.planP(),
			namedOperand{"mask", mask}, namedOperand{"a", a}, namedOperand{"b", b}); err != nil {
			return nil, err
		}
	}
	cfg := opts.config()
	var c *sparse.CSR[float64]
	switch opts.Semiring {
	case SRPlusPair:
		c, err = core.MaskedSpGEMMComp[float64](semiring.PlusPair[float64]{}, mask.csr, a.csr, b.csr, cfg)
	case SROrAnd:
		c, err = core.MaskedSpGEMMComp[float64](semiring.OrAnd[float64]{}, mask.csr, a.csr, b.csr, cfg)
	default:
		c, err = core.MaskedSpGEMMComp[float64](semiring.PlusTimes[float64]{}, mask.csr, a.csr, b.csr, cfg)
	}
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
	if opts.ValidateInputs {
		if err := validateInputs(opts.planP(),
			namedOperand{"a", a}, namedOperand{"b", b}); err != nil {
			return nil, err
		}
	}
	var c *sparse.CSR[float64]
	switch opts.Semiring {
	case SRPlusPair:
		c, err = core.SpGEMM[float64](semiring.PlusPair[float64]{}, a.csr, b.csr)
	case SROrAnd:
		c, err = core.SpGEMM[float64](semiring.OrAnd[float64]{}, a.csr, b.csr)
	default:
		c, err = core.SpGEMM[float64](semiring.PlusTimes[float64]{}, a.csr, b.csr)
	}
	if err != nil {
		return nil, err
	}
	return wrap(c), nil
}

// Multiplier is a reusable execution plan for repeating the same
// masked product: tiling and accumulators are built once and reused by
// every Multiply call. Iterative algorithms over a fixed graph and
// benchmark loops should prefer it over repeated MxM calls.
//
// Concurrency follows the Options the plan was built with: with an
// Engine, concurrent Multiply calls are safe (each run checks a
// private workspace out of the shared pool); without one, the plan
// owns a single workspace and overlapping calls are rejected with
// ErrConcurrentMultiply instead of racing.
//
// A Multiply call that fails (ErrCanceled, ErrPanic) leaves the plan
// intact: the same Multiplier can run again once the cause is resolved.
type Multiplier struct {
	mu coreMultiplier
	// rec is the resolved observability recorder (the StatsRecorder's,
	// or the engine telemetry's fallback; nil disables collection).
	rec   *obs.Recorder
	tel   *Telemetry
	recal *model.Recalibrator
	retry Retry
}

// coreMultiplier is the non-generic surface of core.Multiplier[T, S]
// the facade drives, so one wrapper serves every semiring
// instantiation.
type coreMultiplier interface {
	MultiplyCtx(ctx context.Context) (*sparse.CSR[float64], error)
	MultiplyDegraded(ctx context.Context, d core.Degradation) (*sparse.CSR[float64], error)
	SetKappa(kappa float64)
	Kappa() float64
	LastRunStats() (obs.Stats, bool)
}

// NewMultiplier builds a reusable plan for C = mask ⊙ (a × b). Plan
// construction itself observes opts.Context.
func NewMultiplier(mask, a, b *Matrix, opts Options) (_ *Multiplier, err error) {
	defer recoverAsError(&err)
	if opts.ValidateInputs {
		if err := validateInputs(opts.planP(),
			namedOperand{"mask", mask}, namedOperand{"a", a}, namedOperand{"b", b}); err != nil {
			return nil, err
		}
	}
	cfg := opts.config()
	var cm coreMultiplier
	switch opts.Semiring {
	case SRPlusPair:
		cm, err = core.NewMultiplier[float64](semiring.PlusPair[float64]{}, mask.csr, a.csr, b.csr, cfg)
	case SROrAnd:
		cm, err = core.NewMultiplier[float64](semiring.OrAnd[float64]{}, mask.csr, a.csr, b.csr, cfg)
	default:
		cm, err = core.NewMultiplier[float64](semiring.PlusTimes[float64]{}, mask.csr, a.csr, b.csr, cfg)
	}
	if err != nil {
		return nil, err
	}
	return &Multiplier{
		mu:    cm,
		rec:   opts.recorder(),
		tel:   opts.Engine.telemetry(),
		recal: opts.recalibrator(mask, a, b),
		retry: opts.Retry,
	}, nil
}

// NewMultiplierContext is NewMultiplier under an explicit context,
// which also becomes the default context of every Multiply call on the
// returned plan. A non-nil opts.Context is overridden by ctx.
func NewMultiplierContext(ctx context.Context, mask, a, b *Matrix, opts Options) (*Multiplier, error) {
	opts.Context = ctx
	return NewMultiplier(mask, a, b, opts)
}

// Multiply executes the plan and returns a fresh result matrix, under
// the context the plan was built with (nil = run to completion).
func (mu *Multiplier) Multiply() (*Matrix, error) {
	return mu.MultiplyContext(nil)
}

// MultiplyContext executes the plan under ctx, overriding the plan's
// own context. A cancelled or panicked run returns ErrCanceled/ErrPanic
// and leaves the plan reusable. nil falls back to the plan's context.
//
// Under Options.AdaptiveKappa the call first applies the estimator's
// proposed κ, then feeds the measured run back — so a warm Multiply
// loop is exactly the feedback loop the online recalibration adapts in.
//
// With Options.Retry set on the plan, transient failures re-attempt on
// the degradation ladder: first serially, then additionally on fresh
// unpooled buffers — see Retry.
func (mu *Multiplier) MultiplyContext(ctx context.Context) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	c, err := retryLoop(ctx, mu.retry, mu.rec, mu.tel, func(try int) (*sparse.CSR[float64], error) {
		d := core.DegradeNone
		if try > 0 && !mu.retry.NoDegrade {
			d = core.DegradeSerial
			if try >= 2 {
				d = core.DegradeUnpooled
			}
		}
		return mu.multiplyAttempt(ctx, d)
	})
	if err != nil {
		return nil, err
	}
	return wrap(c), nil
}

// multiplyAttempt runs one attempt of the plan at degradation rung d,
// containing panics so the retry ladder can classify them. κ adaptation
// applies only on the undegraded rung; failed attempts discard their
// armed proposal instead of feeding the estimator.
func (mu *Multiplier) multiplyAttempt(ctx context.Context, d core.Degradation) (_ *sparse.CSR[float64], err error) {
	adapt := mu.recal != nil && d == core.DegradeNone
	if mu.recal != nil {
		// Registered before the recover guard so it runs after it
		// (LIFO), covering contained panics as well as plain error
		// returns. Skipped entirely without an estimator, keeping the
		// warm path's allocation budget untouched.
		defer func() {
			if err != nil {
				mu.recal.ObserveFailure()
			}
		}()
	}
	defer recoverAsError(&err)
	if adapt {
		mu.mu.SetKappa(mu.recal.Propose())
	}
	start := time.Now()
	c, err := mu.mu.MultiplyDegraded(ctx, d)
	if err != nil {
		return nil, err
	}
	if adapt {
		var st obs.Stats
		if snap, ok := mu.mu.LastRunStats(); ok {
			st = snap
		}
		mu.rec.AddRecal(mu.recal.Observe(time.Since(start).Seconds(), st))
	}
	return c, nil
}

// LastStats returns the observability snapshot of the most recent
// successful Multiply call alone — the run's own scoped spans and
// counters, isolated by its multiply sequence id rather than by
// subtracting recorder totals (which double-counts when runs overlap).
// ok is false when the plan was built without a StatsRecorder or
// nothing has run yet.
func (mu *Multiplier) LastStats() (_ KernelStats, ok bool) {
	return mu.mu.LastRunStats()
}

// EWiseAdd returns the element-wise union a ⊕ b: coinciding entries
// combine with the semiring's additive operation, entries present in
// only one operand carry over unchanged.
func EWiseAdd(a, b *Matrix, opts Options) (_ *Matrix, err error) {
	defer recoverAsError(&err)
	var c *sparse.CSR[float64]
	switch opts.Semiring {
	case SROrAnd:
		c, err = core.EWiseAdd[float64](semiring.OrAnd[float64]{}, a.csr, b.csr)
	default:
		c, err = core.EWiseAdd[float64](semiring.PlusTimes[float64]{}, a.csr, b.csr)
	}
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
	var c *sparse.CSR[float64]
	switch opts.Semiring {
	case SROrAnd:
		c, err = core.EWiseMult[float64](semiring.OrAnd[float64]{}, a.csr, b.csr)
	default:
		c, err = core.EWiseMult[float64](semiring.PlusTimes[float64]{}, a.csr, b.csr)
	}
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
