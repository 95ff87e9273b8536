// Package telemetry is the live-observability layer: lock-free
// log-bucketed latency histograms, windowed time-series views, a
// fixed-capacity flight recorder for postmortems, and an opt-in HTTP
// debug server exposing all of it (Prometheus text exposition, stats/v3
// JSON, expvar, pprof).
//
// Everything in internal/obs is post-hoc — a Stats snapshot read after
// the multiply returns. This package inverts the flow: it implements
// obs.Sink, so every phase span, run latency and structured event the
// recorder sees is also pushed here as it happens, and an operator can
// watch p50/p99 per kernel phase, pool hit rates and retry activity on
// a live process — or autopsy a stall from the flight-recorder dump —
// without rebuilding or re-running anything.
//
// The contract the kernel depends on: the record path (Hist.Record,
// Windowed.Record, Telemetry's Sink methods, FlightRecorder.Append)
// never allocates and never blocks on anything slower than a short
// mutex hold. The AllocsPerRun regression tests pin the zero-alloc
// property; the hotpathalloc analyzer rejects reintroductions.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// The histogram buckets values (nanoseconds, but the histogram is
// unit-agnostic) on a log-linear grid, HDR-histogram style: each
// power-of-two octave is split into 2^histSubBits linear sub-buckets,
// so the relative width of any bucket is at most 2^-histSubBits ≈ 3.1%
// — quantile estimates are off by at most half that grid step plus the
// sub-unit rounding of tiny values.
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits // 32
	// histBuckets covers the full non-negative int64 range: values below
	// 2^(histSubBits+1) get exact unit buckets (the first two octaves
	// merged, 64 buckets), and each of the remaining 64-histSubBits-1
	// octaves contributes histSubBuckets more.
	histBuckets = (64-histSubBits-1)*histSubBuckets + 2*histSubBuckets // 1920
)

// bucketIndex maps a non-negative value onto the log-linear grid.
// Values < 64 index directly (exact); larger values take the top
// histSubBits+1 significant bits.
//
//spgemm:hotpath
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*histSubBuckets {
		return int(u)
	}
	shift := bits.Len64(u) - 1 - histSubBits
	return shift*histSubBuckets + int(u>>uint(shift))
}

// bucketLow returns the smallest value mapped to bucket idx — the
// inclusive lower bound used when reconstructing quantiles.
func bucketLow(idx int) int64 {
	if idx < 2*histSubBuckets {
		return int64(idx)
	}
	shift := idx / histSubBuckets
	sub := idx % histSubBuckets
	return int64(uint64(histSubBuckets+sub) << uint(shift-1))
}

// bucketHigh returns the largest value mapped to bucket idx.
func bucketHigh(idx int) int64 {
	if idx >= histBuckets-1 {
		return math.MaxInt64
	}
	return bucketLow(idx+1) - 1
}

// Hist is a lock-free, mergeable log-bucketed histogram. Record is
// wait-free (a handful of atomic adds) and allocation-free; Snapshot
// produces an immutable copy that can be merged with other snapshots
// associatively, so per-shard or per-window histograms aggregate
// exactly.
//
// Concurrent Records interleave their atomic adds, so a Snapshot taken
// mid-record can be transiently inconsistent (count ahead of buckets or
// vice versa); totals are exact once writers quiesce, which is what the
// bit-stability test pins.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	minimum atomic.Int64 // MaxInt64 when empty
	maximum atomic.Int64 // MinInt64 when empty
	buckets [histBuckets]atomic.Int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	h := &Hist{}
	h.minimum.Store(math.MaxInt64)
	h.maximum.Store(math.MinInt64)
	return h
}

// Record folds one observation in. Negative values clamp to zero.
// Wait-free and allocation-free.
//
//spgemm:hotpath
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.minimum.Load()
		if v >= cur || h.minimum.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.maximum.Load()
		if v <= cur || h.maximum.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Reset zeroes the histogram. Not atomic with respect to concurrent
// Records; callers quiesce writers or accept the raced observations.
func (h *Hist) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.minimum.Store(math.MaxInt64)
	h.maximum.Store(math.MinInt64)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// HistSnapshot is an immutable copy of a Hist. The zero value is a
// valid empty snapshot.
type HistSnapshot struct {
	Count int64
	Sum   int64
	Min   int64 // undefined when Count == 0
	Max   int64 // undefined when Count == 0
	// buckets is nil for an empty snapshot; shared, never mutated.
	buckets *[histBuckets]int64
}

// Snapshot copies the histogram's current state.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.minimum.Load(),
		Max:   h.maximum.Load(),
	}
	if s.Count == 0 {
		return HistSnapshot{}
	}
	b := new([histBuckets]int64)
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
	}
	s.buckets = b
	return s
}

// Merge returns the bucket-wise sum of s and o. Merging is associative
// and commutative, so shard histograms combine in any order to the same
// result.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if s.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return s
	}
	out := HistSnapshot{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		Min:   min(s.Min, o.Min),
		Max:   max(s.Max, o.Max),
	}
	b := new([histBuckets]int64)
	for i := range b {
		b[i] = s.buckets[i] + o.buckets[i]
	}
	out.buckets = b
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket
// counts: it walks to the bucket holding the q·Count-th observation and
// returns that bucket's midpoint, clamped to the observed [Min, Max].
// The estimate's relative error is bounded by the grid (≈ 2^-5/2) for
// values ≥ 64 and exact below. Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || s.buckets == nil {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The rank is 1-based: q=0 hits the first observation, q=1 the last.
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.buckets {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			lo, hi := bucketLow(i), bucketHigh(i)
			mid := lo + (hi-lo)/2
			return min(max(mid, s.Min), s.Max)
		}
	}
	return s.Max
}

// Mean returns the exact arithmetic mean (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
