package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Methodology controls how a kernel is timed. The paper runs one
// warm-up, then repeats for 5 seconds or 10000 iterations, whichever
// comes first (§IV-A); the defaults here shrink that budget to suit a
// laptop while keeping the shape: warm-up, repeat until either the time
// budget or the repetition cap is hit, report the minimum.
type Methodology struct {
	// Warmups is the number of untimed runs before measurement.
	Warmups int
	// MaxReps caps the number of timed repetitions.
	MaxReps int
	// Budget caps the total measurement time.
	Budget time.Duration
	// Context, when non-nil, aborts the measurement loop between runs
	// and cancels in-flight kernels (for kernels that observe it), so an
	// interrupted benchmark exits promptly with partial results flushed.
	Context context.Context
}

// DefaultMethodology measures with 1 warm-up, up to 5 reps, 2 s budget.
func DefaultMethodology() Methodology {
	return Methodology{Warmups: 1, MaxReps: 5, Budget: 2 * time.Second}
}

// QuickMethodology is a single warm-up-free measurement for smoke runs.
func QuickMethodology() Methodology {
	return Methodology{Warmups: 0, MaxReps: 1, Budget: time.Hour}
}

// Measurement is one timed kernel execution summary. Millis (the
// minimum) remains the headline number the paper's methodology reports;
// the mean, median and standard deviation expose run-to-run variance
// for the machine-readable output, and the allocator columns carry the
// traffic the execution engine and the fused pipeline exist to remove.
type Measurement struct {
	// Millis is the minimum observed wall time in milliseconds.
	Millis float64 `json:"min_millis"`
	// MeanMillis is the arithmetic mean over the timed repetitions.
	MeanMillis float64 `json:"mean_millis"`
	// P50Millis is the median repetition time.
	P50Millis float64 `json:"p50_millis"`
	// StddevMillis is the population standard deviation of the
	// repetition times (0 for a single rep).
	StddevMillis float64 `json:"stddev_millis"`
	// Reps is how many timed repetitions were taken.
	Reps int `json:"reps"`
	// OutputNNZ is the result size, kept as a cross-run checksum.
	OutputNNZ int64 `json:"output_nnz"`
	// AllocsPerOp and BytesPerOp are the heap allocation count and
	// volume of one timed repetition. They include everything a
	// repetition does, freshly assembled result matrices too.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// time is the harness's one timing helper: it measures run under the
// options' methodology and logs the measurement under (experiment,
// graph, config), so every number a text table prints has a -json row.
func (o Options) time(experiment, graph, config string, run func() (int64, error)) (Measurement, error) {
	m, err := measure(run, o.Method)
	if err != nil {
		return m, fmt.Errorf("%s/%s %s: %w", experiment, graph, config, err)
	}
	o.Log.Add(experiment, graph, config, m)
	return m, nil
}

// timeMasked times C = A ⊙ (A×A) — the paper's benchmark kernel
// (§IV-A: M and B are identical to A) — under the given configuration.
func (o Options) timeMasked(experiment, graph, config string, a *sparse.CSR[float64], cfg core.Config) (Measurement, error) {
	if cfg.Context == nil {
		cfg.Context = o.Method.Context
	}
	sr := semiring.PlusTimes[float64]{}
	return o.time(experiment, graph, config, func() (int64, error) {
		return nnz(core.MaskedSpGEMM[float64](sr, a, a, a, cfg))
	})
}

// nnz adapts a kernel's (result, error) pair to the checksum the
// timing loop compares across repetitions.
func nnz(c *sparse.CSR[float64], err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	return c.NNZ(), nil
}

// warm drops the methodology's warm-up, for loops an experiment has
// already run once untimed (to populate an engine or read a recorder).
func (o Options) warm() Options {
	o.Method.Warmups = 0
	return o
}

// measure runs the methodology: warm-ups, then repetitions until the
// cap or the budget, with the allocator's counters read around the
// timed repetitions. A checksum that changes between runs of the same
// kernel is a broken kernel, not a measurement.
func measure(run func() (int64, error), m Methodology) (Measurement, error) {
	var out Measurement
	first := true
	once := func() error {
		sum, err := run()
		if err != nil {
			return err
		}
		if !first && sum != out.OutputNNZ {
			return fmt.Errorf("bench: checksum drifted between repetitions: %d, then %d", out.OutputNNZ, sum)
		}
		first, out.OutputNNZ = false, sum
		return nil
	}
	for w := 0; w < m.Warmups; w++ {
		if err := methodErr(m); err != nil {
			return out, err
		}
		if err := once(); err != nil {
			return out, err
		}
	}
	deadline := time.Now().Add(m.Budget)
	samples := make([]float64, 0, m.MaxReps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for rep := 0; rep < m.MaxReps; rep++ {
		// The budget gates *starting* a repetition, not just finishing
		// one: once a rep has consumed the budget, the next would overrun
		// it by a whole kernel run. The first rep always runs so every
		// measurement has at least one sample.
		if rep > 0 && !time.Now().Before(deadline) {
			break
		}
		if err := methodErr(m); err != nil {
			return out, err
		}
		start := time.Now()
		err := once()
		elapsed := time.Since(start)
		if err != nil {
			return out, err
		}
		samples = append(samples, float64(elapsed)/float64(time.Millisecond))
	}
	runtime.ReadMemStats(&after)
	out.Reps = len(samples)
	out.fillFrom(samples)
	if out.Reps > 0 {
		out.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(out.Reps)
		out.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(out.Reps)
	}
	return out, nil
}

// fillFrom computes the summary statistics from the per-rep times.
func (out *Measurement) fillFrom(samples []float64) {
	if len(samples) == 0 {
		return
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	out.Millis = sorted[0]
	n := len(sorted)
	if n%2 == 1 {
		out.P50Millis = sorted[n/2]
	} else {
		out.P50Millis = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	var sum float64
	for _, s := range sorted {
		sum += s
	}
	out.MeanMillis = sum / float64(n)
	var sq float64
	for _, s := range sorted {
		d := s - out.MeanMillis
		sq += d * d
	}
	out.StddevMillis = math.Sqrt(sq / float64(n))
}

// methodErr reports the methodology's context error, wrapped in the
// kernel taxonomy's ErrCanceled so callers can dispatch uniformly.
func methodErr(m Methodology) error {
	if m.Context == nil {
		return nil
	}
	if err := m.Context.Err(); err != nil {
		return fmt.Errorf("%w: %w", core.ErrCanceled, err)
	}
	return nil
}
