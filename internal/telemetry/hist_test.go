package telemetry

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestBucketGridContiguous pins the log-linear grid: every reachable
// bucket's [low, high] range maps back to itself, ranges abut with no
// gaps or overlaps, and the extreme values land inside the grid.
func TestBucketGridContiguous(t *testing.T) {
	maxIdx := bucketIndex(math.MaxInt64)
	if maxIdx >= histBuckets {
		t.Fatalf("bucketIndex(MaxInt64) = %d, beyond histBuckets %d", maxIdx, histBuckets)
	}
	prevHigh := int64(-1)
	for idx := 0; idx <= maxIdx; idx++ {
		lo, hi := bucketLow(idx), bucketHigh(idx)
		if lo != prevHigh+1 {
			t.Fatalf("bucket %d: low %d, want %d (contiguous with previous high)", idx, lo, prevHigh+1)
		}
		if hi < lo {
			t.Fatalf("bucket %d: high %d < low %d", idx, hi, lo)
		}
		if got := bucketIndex(lo); got != idx {
			t.Fatalf("bucketIndex(low=%d) = %d, want %d", lo, got, idx)
		}
		if got := bucketIndex(hi); got != idx {
			t.Fatalf("bucketIndex(high=%d) = %d, want %d", hi, got, idx)
		}
		prevHigh = hi
	}
	if prevHigh != math.MaxInt64 {
		t.Fatalf("grid tops out at %d, want MaxInt64", prevHigh)
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("bucketIndex(-5) = %d, want 0 (clamp)", got)
	}
}

// TestBucketRelativeWidth pins the accuracy contract: above the exact
// range every bucket's width is at most 2^-histSubBits of its low bound.
func TestBucketRelativeWidth(t *testing.T) {
	maxIdx := bucketIndex(math.MaxInt64)
	for idx := 2 * histSubBuckets; idx <= maxIdx; idx++ {
		lo, hi := bucketLow(idx), bucketHigh(idx)
		width := float64(hi-lo) + 1
		if rel := width / float64(lo); rel > 1.0/histSubBuckets+1e-9 {
			t.Fatalf("bucket %d [%d,%d]: relative width %.4f exceeds %.4f",
				idx, lo, hi, rel, 1.0/histSubBuckets)
		}
	}
}

// exactQuantile mirrors HistSnapshot.Quantile's rank definition (1-based
// ceil rank) on the raw sorted values.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQuantileErrorBounds records deterministic streams spanning several
// orders of magnitude and requires every estimated quantile to be within
// the grid's relative error of the exact value.
func TestQuantileErrorBounds(t *testing.T) {
	streams := map[string]func() []int64{
		"uniform-small": func() []int64 { // exact range: values < 64
			var v []int64
			for i := int64(0); i < 1000; i++ {
				v = append(v, i%64)
			}
			return v
		},
		"linear-wide": func() []int64 {
			var v []int64
			for i := int64(1); i <= 50000; i++ {
				v = append(v, i*37)
			}
			return v
		},
		"log-spread": func() []int64 { // ns-scale latencies, 1µs..1s
			var v []int64
			x := int64(1000)
			for i := 0; i < 20000; i++ {
				v = append(v, x)
				x += x/100 + 1
				if x > 1e9 {
					x = 1000
				}
			}
			return v
		},
	}
	quantiles := []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for name, gen := range streams {
		values := gen()
		h := NewHist()
		for _, v := range values {
			h.Record(v)
		}
		sorted := append([]int64(nil), values...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		snap := h.Snapshot()
		if snap.Count != int64(len(values)) {
			t.Fatalf("%s: count %d, want %d", name, snap.Count, len(values))
		}
		for _, q := range quantiles {
			got := snap.Quantile(q)
			want := exactQuantile(sorted, q)
			// Midpoint reconstruction errs by at most half a bucket width
			// (1/histSubBuckets/2 relative) above the exact range, and by
			// nothing below it; +1 absorbs integer midpoint truncation.
			tol := int64(float64(want)/(2*histSubBuckets)) + 1
			if want < 2*histSubBuckets {
				tol = 0
			}
			if got < want-tol || got > want+tol {
				t.Errorf("%s: q=%.3f: got %d, want %d ± %d", name, q, got, want, tol)
			}
		}
	}
}

// TestQuantileEmpty pins the zero-snapshot behavior.
func TestQuantileEmpty(t *testing.T) {
	var s HistSnapshot
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	if got := s.Mean(); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}
}

func histOf(values ...int64) HistSnapshot {
	h := NewHist()
	for _, v := range values {
		h.Record(v)
	}
	return h.Snapshot()
}

// TestMergeAssociativeCommutative pins that snapshot merging is
// associative and commutative and treats the zero snapshot as identity —
// the properties per-window and per-shard aggregation rely on.
func TestMergeAssociativeCommutative(t *testing.T) {
	a := histOf(1, 5, 900, 1e6)
	b := histOf(63, 64, 65, 1e9, 1e9)
	c := histOf(0, 2, 4096)

	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if !reflect.DeepEqual(left, right) {
		t.Fatalf("merge not associative: (a+b)+c != a+(b+c)")
	}
	if !reflect.DeepEqual(a.Merge(b), b.Merge(a)) {
		t.Fatalf("merge not commutative")
	}
	var zero HistSnapshot
	if !reflect.DeepEqual(a.Merge(zero), a) || !reflect.DeepEqual(zero.Merge(a), a) {
		t.Fatalf("zero snapshot is not a merge identity")
	}
	if left.Count != a.Count+b.Count+c.Count {
		t.Fatalf("merged count %d, want %d", left.Count, a.Count+b.Count+c.Count)
	}
	if left.Min != 0 || left.Max != int64(1e9) {
		t.Fatalf("merged min/max = %d/%d, want 0/1e9", left.Min, left.Max)
	}
}

// TestConcurrentRecordBitStable records the same multiset of values from
// many goroutines and serially, and requires bit-identical snapshots —
// the histogram's counts must be exact once writers quiesce, regardless
// of interleaving. Run under -race this also proves the record path is
// data-race-free.
func TestConcurrentRecordBitStable(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	value := func(g, i int) int64 { return int64((g*perG+i)*131) % 1e7 }

	concurrent := NewHist()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				concurrent.Record(value(g, i))
			}
		}(g)
	}
	wg.Wait()

	serial := NewHist()
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			serial.Record(value(g, i))
		}
	}
	if !reflect.DeepEqual(concurrent.Snapshot(), serial.Snapshot()) {
		t.Fatalf("concurrent snapshot differs from serial snapshot of the same multiset")
	}
}

// TestHistReset pins that Reset returns the histogram to its empty
// state.
func TestHistReset(t *testing.T) {
	h := NewHist()
	h.Record(42)
	h.Record(1e6)
	h.Reset()
	if snap := h.Snapshot(); snap.Count != 0 || snap.buckets != nil {
		t.Fatalf("after Reset: count %d, want empty snapshot", snap.Count)
	}
	h.Record(7)
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Min != 7 || snap.Max != 7 {
		t.Fatalf("after Reset+Record: %+v, want single observation of 7", snap)
	}
}

// TestRecordPathZeroAlloc backs Record's hotpathalloc annotation with a
// measurement: a steady-state record allocates nothing.
func TestRecordPathZeroAlloc(t *testing.T) {
	h := NewHist()
	v := int64(0)
	if n := testing.AllocsPerRun(100, func() { h.Record(v); v += 997 }); n != 0 {
		t.Errorf("Hist.Record allocates %.1f times per op, want exactly 0", n)
	}
}
