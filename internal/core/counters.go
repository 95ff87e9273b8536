package core

import (
	"sync/atomic"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/sparse"
)

// Counters are actual (not modeled) operation counts from an
// instrumented kernel run — the ground truth the symbolic Profile is
// validated against, and the observability hook for tuning studies.
type Counters struct {
	// Rows is the number of output rows processed.
	Rows int64
	// MaskLoads is the number of mask entries inserted into accumulators.
	MaskLoads int64
	// Updates is the number of accumulator updates attempted: Update and
	// UpdateMasked calls plus the entries of every Scatter and
	// ScatterMasked batch.
	Updates int64
	// Rejected is the number of masked updates the mask filtered out.
	Rejected int64
	// Gathered is the number of output entries emitted.
	Gathered int64
}

// countingAccumulator decorates any accumulator with operation counts.
// Counts are accumulated locally and flushed atomically so one decorator
// can serve each worker without contention in the hot loop; the header
// fills a cache line, since every worker's is written on every row.
type countingAccumulator[T sparse.Number] struct {
	inner accum.Accumulator[T]
	local Counters
	_     [8]byte // pad to a cache line (TestCountingAccumulatorFillsCacheLine)
}

//spgemm:hotpath
func (c *countingAccumulator[T]) BeginRow() {
	c.local.Rows++
	c.inner.BeginRow()
}

//spgemm:hotpath
func (c *countingAccumulator[T]) LoadMask(cols []sparse.Index) {
	c.local.MaskLoads += int64(len(cols))
	c.inner.LoadMask(cols)
}

//spgemm:hotpath
func (c *countingAccumulator[T]) Update(j sparse.Index, x T) {
	c.local.Updates++
	c.inner.Update(j, x)
}

//spgemm:hotpath
func (c *countingAccumulator[T]) UpdateMasked(j sparse.Index, x T) bool {
	c.local.Updates++
	ok := c.inner.UpdateMasked(j, x)
	if !ok {
		c.local.Rejected++
	}
	return ok
}

//spgemm:hotpath
func (c *countingAccumulator[T]) Scatter(aik T, cols []sparse.Index, vals []T) {
	c.local.Updates += int64(len(cols))
	c.inner.Scatter(aik, cols, vals)
}

//spgemm:hotpath
func (c *countingAccumulator[T]) ScatterMasked(aik T, cols []sparse.Index, vals []T) int {
	c.local.Updates += int64(len(cols))
	hits := c.inner.ScatterMasked(aik, cols, vals)
	c.local.Rejected += int64(len(cols) - hits)
	return hits
}

//spgemm:hotpath
func (c *countingAccumulator[T]) Gather(
	maskCols []sparse.Index, cols []sparse.Index, vals []T,
) ([]sparse.Index, []T) {
	before := len(cols)
	cols, vals = c.inner.Gather(maskCols, cols, vals)
	c.local.Gathered += int64(len(cols) - before)
	return cols, vals
}

// EnableStats and AccumStats pass the accum.Instrumented surface
// through to the decorated accumulator, so observability recording and
// operation counting compose in the instrumented entry point.
func (c *countingAccumulator[T]) EnableStats() {
	if in, ok := c.inner.(accum.Instrumented); ok {
		in.EnableStats()
	}
}

func (c *countingAccumulator[T]) AccumStats() accum.Stats {
	if in, ok := c.inner.(accum.Instrumented); ok {
		return in.AccumStats()
	}
	return accum.Stats{}
}

var _ accum.Instrumented = (*countingAccumulator[float64])(nil)

// flushInto adds the local counts into the shared atomic totals.
func (c *countingAccumulator[T]) flushInto(t *atomicCounters) {
	t.rows.Add(c.local.Rows)
	t.maskLoads.Add(c.local.MaskLoads)
	t.updates.Add(c.local.Updates)
	t.rejected.Add(c.local.Rejected)
	t.gathered.Add(c.local.Gathered)
}

// atomicCounters is the shared flush target: every worker's decorator
// flushes into it once per tile, so unlike the per-worker obs blocks it
// is genuinely contended and must both stay atomic and avoid sharing
// its cache lines with neighboring allocations (TestCounterBlockLayout
// pins the size).
type atomicCounters struct {
	rows, maskLoads, updates, rejected, gathered atomic.Int64
	_                                            [128 - 5*8]byte // pad to 2 cache lines
}

func (t *atomicCounters) snapshot() Counters {
	return Counters{
		Rows:      t.rows.Load(),
		MaskLoads: t.maskLoads.Load(),
		Updates:   t.updates.Load(),
		Rejected:  t.rejected.Load(),
		Gathered:  t.gathered.Load(),
	}
}
