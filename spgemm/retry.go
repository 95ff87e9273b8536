package spgemm

import (
	"context"
	"errors"
	"time"

	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sparse"
)

// Retry is the automatic re-execution policy applied by MxM, MxMChain
// and Multiplier.Multiply when Options.Retry is set. Only transient
// failures are retried — contained kernel panics (ErrPanic),
// stall-watchdog verdicts (ErrStalled) and injected faults; real
// cancellation, shape, configuration and input-validation errors return
// immediately.
//
// Unless NoDegrade is set, each retry descends one rung of the
// degradation ladder, trading throughput for isolation from whatever
// tripped the previous attempt:
//
//	attempt 1   the configured path, as tuned
//	attempt 2   serial: one worker
//	attempt 3+  additionally unfused (chains run staged) and unpooled
//	            (no Engine — fresh buffers, no shared workspace state)
//
// The final rung shares nothing mutable with other runs, so a fault
// rooted in concurrency, fusion staging or pooled-workspace state
// cannot recur there. Results on every rung are bit-identical to the
// configured path. Attempt outcomes are recorded in the stats/v1 retry
// block when a StatsRecorder is attached.
type Retry struct {
	// MaxAttempts is the total execution budget, first try included.
	// 0 or 1 disables retrying.
	MaxAttempts int
	// Backoff is the wait before the second attempt, doubling on each
	// subsequent one. The wait observes Options.Context. 0 retries
	// immediately.
	Backoff time.Duration
	// NoDegrade retries on the configured path instead of descending
	// the degradation ladder — for callers that would rather fail than
	// run serially.
	NoDegrade bool
}

// retryable reports whether err is a transient failure the retry
// ladder may re-attempt. Real cancellation is not retryable — the
// caller asked the run to stop — but a spurious injected cancel (which
// also matches chaos.ErrInjected) is.
func retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrPanic), errors.Is(err, ErrStalled):
		return true
	case errors.Is(err, ErrCanceled):
		return errors.Is(err, chaos.ErrInjected)
	}
	return false
}

// rung returns the options for attempt try (0 = the first, configured
// try): rung one forces the serial path, rung two and beyond
// additionally drop fusion and the engine. Adaptive κ is disabled on
// every degraded rung — a degraded run measures a different execution
// path and must not steer the estimator.
func (o Options) rung(try int) Options {
	if try == 0 || o.Retry.NoDegrade {
		return o
	}
	o.Workers = 1
	o.AdaptiveKappa = false
	if try >= 2 {
		o.Fuse = false
		o.Engine = nil
	}
	return o
}

// retry runs attempt under the options' retry policy, the one loop
// behind MxM, MxMChain and Multiplier.Multiply: the first try gets the
// options as configured, each further try its rung's, with a doubling
// backoff that observes the context in between. Retry counters are
// recorded only when a retry policy is configured, so plain calls leave
// the stats/v1 retry block untouched.
func (o Options) retry(attempt func(Options) (*sparse.CSR[float64], error)) (*sparse.CSR[float64], error) {
	r, rec := o.Retry, o.recorder()
	budget := max(r.MaxAttempts, 1)
	record := r.MaxAttempts > 1
	backoff := r.Backoff
	var lastErr error
	for try := 0; try < budget; try++ {
		c, err := attempt(o.rung(try))
		if record {
			rec.AddRetry(obs.RetryCounters{
				Attempts:     1,
				Retries:      b2i(try > 0),
				Degradations: b2i(try > 0 && !r.NoDegrade),
				Stalls:       b2i(errors.Is(err, ErrStalled)),
			})
		}
		if err == nil {
			return c, nil
		}
		lastErr = err
		if !retryable(err) || try == budget-1 {
			break
		}
		if backoff > 0 {
			if sleepCtx(o.Context, backoff) != nil {
				break
			}
			backoff *= 2
		}
	}
	if record {
		rec.AddRetry(obs.RetryCounters{Failures: 1})
	}
	dumpOnFailure(o.Engine.telemetry(), r, lastErr)
	return nil, lastErr
}

// dumpOnFailure writes the flight recorder's event window to disk when
// a multiplication fails terminally: always on a stall or contained
// panic, and on any retryable failure once a configured retry ladder
// has exhausted its budget. Dump-write errors are swallowed — the
// multiply's own error must surface undisturbed, and a broken dump
// path has no other channel here. No-op without telemetry.
func dumpOnFailure(tel *Telemetry, r Retry, err error) {
	if tel == nil || err == nil {
		return
	}
	switch {
	case errors.Is(err, ErrStalled), errors.Is(err, ErrPanic):
	case r.MaxAttempts > 1 && retryable(err):
	default:
		return
	}
	_, _ = tel.internal().DumpFailure("", err)
}

// sleepCtx waits d, returning early with the context's error if ctx is
// done first. A nil ctx waits unconditionally.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
