package spgemm

import (
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// maskedKernel is one semiring's instantiation of core.MaskedSpGEMM.
type maskedKernel func(m, a, b *sparse.CSR[float64], cfg core.Config) (*sparse.CSR[float64], error)

func maskedFor[S semiring.Semiring[float64]](sr S) maskedKernel {
	return func(m, a, b *sparse.CSR[float64], cfg core.Config) (*sparse.CSR[float64], error) {
		return core.MaskedSpGEMM[float64](sr, m, a, b, cfg)
	}
}

// semiringKernels is the masked product MxM dispatches on
// Options.Semiring, indexed by Semiring: a new semiring is one row.
var semiringKernels = [...]maskedKernel{
	SRPlusTimes: maskedFor(semiring.PlusTimes[float64]{}),
	SRPlusPair:  maskedFor(semiring.PlusPair[float64]{}),
	SROrAnd:     maskedFor(semiring.OrAnd[float64]{}),
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
// goroutine so the retry ladder can classify them.
func mxmAttempt(mask, a, b *Matrix, opts Options) (_ *sparse.CSR[float64], err error) {
	defer recoverAsError(&err)
	return semiringKernels[opts.Semiring](mask.csr, a.csr, b.csr, opts.config())
}
