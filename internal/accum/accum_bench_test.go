package accum

import (
	"fmt"
	"testing"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// benchRow builds a deterministic mask row and update stream shaped
// like a masked-SpGEMM row: maskLen allowed columns out of n, updates
// candidate updates of which one in eight hits the mask (most Eq. 2
// FLOPs of a masked product are rejected; on the triangle-count corpus
// far more than seven in eight).
func benchRow(n, maskLen, updates int) (mask []sparse.Index, stream []sparse.Index) {
	mask = make([]sparse.Index, maskLen)
	stride := n / maskLen
	for i := range mask {
		mask[i] = sparse.Index(i * stride)
	}
	stream = make([]sparse.Index, updates)
	for i := range stream {
		if i%8 == 0 {
			stream[i] = mask[(i/8)%maskLen] // hit
		} else {
			stream[i] = sparse.Index((i*stride + stride/2) % n) // miss
		}
	}
	return mask, stream
}

// updatePerEntry is the inner loop the row kernels had before the
// batched contract, generic over the semiring exactly as they are — so
// Times is the dictionary call it is there, not the inlined multiply a
// concrete PlusTimes would give a benchmark.
//
//go:noinline
func updatePerEntry[S semiring.Semiring[float64]](
	sr S, acc Accumulator[float64], aik float64, cols []sparse.Index, vals []float64,
) {
	for p, j := range cols {
		acc.UpdateMasked(j, sr.Times(aik, vals[p]))
	}
}

// BenchmarkAccumulatorRow measures the full per-row protocol
// (reset, mask load, masked updates, gather) for every accumulator
// configuration — the §III-C micro-comparison — with the updates made
// both ways the contract allows: per-entry, one UpdateMasked interface
// call per candidate as the row kernels once did, and batched, one
// ScatterMasked call per 64-entry B row as they do now. ns/update is
// the row's time over its candidate updates, the accumulator's share of
// core.kernel_ns_per_flop.
func BenchmarkAccumulatorRow(b *testing.B) {
	const n, maskLen, updates, bRow = 1 << 16, 64, 512, 64
	mask, stream := benchRow(n, maskLen, updates)
	bVals := make([]float64, updates)
	for i := range bVals {
		bVals[i] = 1
	}
	sr := semiring.PlusTimes[float64]{}
	cases := []struct {
		name string
		acc  Accumulator[float64]
	}{
		{"Dense8", NewDense[float64, semiring.PlusTimes[float64], uint8](sr, n)},
		{"Dense16", NewDense[float64, semiring.PlusTimes[float64], uint16](sr, n)},
		{"Dense32", NewDense[float64, semiring.PlusTimes[float64], uint32](sr, n)},
		{"Dense64", NewDense[float64, semiring.PlusTimes[float64], uint64](sr, n)},
		{"Hash32", NewHash[float64, semiring.PlusTimes[float64], uint32](sr, maskLen)},
		{"DenseExplicit", NewDenseExplicit[float64, semiring.PlusTimes[float64]](sr, n)},
		{"HashExplicit", NewHashExplicit[float64, semiring.PlusTimes[float64]](sr, int64(maskLen))},
	}
	var cols []sparse.Index
	var vals []float64
	for _, c := range cases {
		acc := c.acc
		row := func(b *testing.B, update func()) {
			for i := 0; i < b.N; i++ {
				acc.BeginRow()
				acc.LoadMask(mask)
				update()
				cols, vals = acc.Gather(mask, cols[:0], vals[:0])
			}
			b.ReportMetric(float64(len(cols)), "row-nnz")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*updates), "ns/update")
		}
		b.Run(c.name+"/per-entry", func(b *testing.B) {
			row(b, func() {
				for lo := 0; lo < updates; lo += bRow {
					updatePerEntry(sr, acc, 1, stream[lo:lo+bRow], bVals[lo:lo+bRow])
				}
			})
		})
		b.Run(c.name+"/batched", func(b *testing.B) {
			row(b, func() {
				for lo := 0; lo < updates; lo += bRow {
					acc.ScatterMasked(1, stream[lo:lo+bRow], bVals[lo:lo+bRow])
				}
			})
		})
	}
	_ = vals
}

// BenchmarkAccumulatorReset isolates the reset cost: marker-based reset
// is O(1) per row until the marker wraps; explicit reset walks the
// touched slots every row.
func BenchmarkAccumulatorReset(b *testing.B) {
	const n, maskLen = 1 << 18, 128
	mask, _ := benchRow(n, maskLen, 1)
	sr := semiring.PlusTimes[float64]{}
	for _, bits := range []int{8, 32} {
		b.Run(fmt.Sprintf("DenseMarker%d", bits), func(b *testing.B) {
			acc := New[float64](DenseKind, sr, n, maskLen, bits)
			for i := 0; i < b.N; i++ {
				acc.BeginRow()
				acc.LoadMask(mask)
			}
		})
	}
	b.Run("DenseExplicit", func(b *testing.B) {
		acc := New[float64](DenseExplicitKind, sr, n, maskLen, 64)
		for i := 0; i < b.N; i++ {
			acc.BeginRow()
			acc.LoadMask(mask)
		}
	})
}
