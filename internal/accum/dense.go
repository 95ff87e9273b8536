package accum

import (
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Dense is the dense marker-based accumulator: one value slot and one
// marker word per output column. Per-row reset is O(1) — advance the
// marker — except when the marker wraps, which forces an O(n) clear
// (paper §III-C: "overflow is detected and the state is fully reset").
//
// Marker protocol: each row owns two consecutive marker values,
// mask (odd) and entry = mask+1. A slot whose state equals mask is
// allowed-but-unwritten; state equal to entry is written; anything else
// is stale from an earlier row and treated as empty.
type Dense[T sparse.Number, S semiring.Semiring[T], M Marker] struct {
	sr    S
	state []M
	vals  []T
	mask  M // current row's mask marker (odd); entry marker is mask+1
	// Clears counts full state resets due to marker overflow; exposed so
	// tests and benches can observe the bit-width trade-off directly.
	Clears int64
}

// NewDense returns a dense accumulator for rows of column dimension n.
func NewDense[T sparse.Number, S semiring.Semiring[T], M Marker](sr S, n int) *Dense[T, S, M] {
	d := &Dense[T, S, M]{
		sr:    sr,
		state: make([]M, n),
		vals:  make([]T, n),
	}
	d.mask = 1
	return d
}

// BeginRow advances the marker pair, clearing the state array only when
// the marker would wrap.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) BeginRow() {
	var maxM M
	maxM--
	if d.mask >= maxM-2 {
		clear(d.state)
		d.mask = 1
		d.Clears++
		return
	}
	d.mask += 2
}

// LoadMask marks cols as allowed for this row.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) LoadMask(cols []sparse.Index) {
	m := d.mask
	for _, j := range cols {
		d.state[j] = m
	}
}

// Update accumulates x into column j, creating the entry if the slot is
// empty or stale.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) Update(j sparse.Index, x T) {
	entry := d.mask + 1
	if d.state[j] == entry {
		d.vals[j] = d.sr.Plus(d.vals[j], x)
		return
	}
	d.state[j] = entry
	d.vals[j] = x
}

// UpdateMasked accumulates x into column j only if LoadMask allowed it.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) UpdateMasked(j sparse.Index, x T) bool {
	entry := d.mask + 1
	switch d.state[j] {
	case entry:
		d.vals[j] = d.sr.Plus(d.vals[j], x)
		return true
	case d.mask:
		d.state[j] = entry
		d.vals[j] = x
		return true
	default:
		return false
	}
}

// Scatter is the batched Update: one A entry times one B row, with the
// arrays and the marker pair held in locals for the whole row.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) Scatter(aik T, cols []sparse.Index, vals []T) {
	vals = vals[:len(cols)]
	state := d.state
	dv := d.vals[:len(state)]
	entry := d.mask + 1
	for p, j := range cols {
		x := d.sr.Times(aik, vals[p])
		if state[j] == entry {
			x = d.sr.Plus(dv[j], x)
		}
		state[j] = entry
		dv[j] = x
	}
}

// ScatterMasked is the batched UpdateMasked. A column outside the mask
// costs one state load and no call; the semiring is consulted only for
// columns the mask admits.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) ScatterMasked(aik T, cols []sparse.Index, vals []T) (hits int) {
	vals = vals[:len(cols)]
	state := d.state
	dv := d.vals[:len(state)]
	mask := d.mask
	entry := mask + 1
	for p, j := range cols {
		st := state[j]
		if st != mask && st != entry {
			continue
		}
		x := d.sr.Times(aik, vals[p])
		if st == entry {
			x = d.sr.Plus(dv[j], x)
		}
		state[j] = entry
		dv[j] = x
		hits++
	}
	return hits
}

// Gather appends the written entries among maskCols, in mask order.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) Gather(
	maskCols []sparse.Index, cols []sparse.Index, vals []T,
) ([]sparse.Index, []T) {
	entry := d.mask + 1
	for _, j := range maskCols {
		if d.state[j] == entry {
			cols = append(cols, j)
			vals = append(vals, d.vals[j])
		}
	}
	return cols, vals
}

// EnableStats is a no-op: the dense accumulator has no probe loop, and
// its only gated-worthy counter (Clears) is already counted for free.
func (d *Dense[T, S, M]) EnableStats() {}

// AccumStats returns the marker-overflow count; a dense table has no
// hash probes or grows.
func (d *Dense[T, S, M]) AccumStats() Stats { return Stats{Clears: d.Clears} }

var _ Accumulator[float64] = (*Dense[float64, semiring.PlusTimes[float64], uint32])(nil)
var _ Instrumented = (*Dense[float64, semiring.PlusTimes[float64], uint32])(nil)

// DenseExplicit is the dense accumulator with GrB's reset strategy:
// per-slot booleans cleared explicitly after every row instead of a
// marker advance. It tracks every touched slot (mask loads and vanilla
// updates alike) so BeginRow can undo exactly what the row did.
type DenseExplicit[T sparse.Number, S semiring.Semiring[T]] struct {
	sr      S
	state   []uint8 // 0 empty, 1 masked, 2 written
	vals    []T
	touched []sparse.Index
}

// NewDenseExplicit returns an explicit-reset dense accumulator for rows
// of column dimension n.
func NewDenseExplicit[T sparse.Number, S semiring.Semiring[T]](sr S, n int) *DenseExplicit[T, S] {
	return &DenseExplicit[T, S]{
		sr:    sr,
		state: make([]uint8, n),
		vals:  make([]T, n),
	}
}

// BeginRow clears exactly the slots the previous row touched.
//
//spgemm:hotpath
func (d *DenseExplicit[T, S]) BeginRow() {
	for _, j := range d.touched {
		d.state[j] = 0
	}
	d.touched = d.touched[:0]
}

// LoadMask marks cols as allowed for this row.
//
//spgemm:hotpath
func (d *DenseExplicit[T, S]) LoadMask(cols []sparse.Index) {
	for _, j := range cols {
		if d.state[j] == 0 {
			d.touched = append(d.touched, j)
		}
		d.state[j] = 1
	}
}

// Update accumulates x into column j unconditionally.
//
//spgemm:hotpath
func (d *DenseExplicit[T, S]) Update(j sparse.Index, x T) {
	switch d.state[j] {
	case 2:
		d.vals[j] = d.sr.Plus(d.vals[j], x)
	case 1:
		d.state[j] = 2
		d.vals[j] = x
	default:
		d.touched = append(d.touched, j)
		d.state[j] = 2
		d.vals[j] = x
	}
}

// UpdateMasked accumulates x into column j only if LoadMask allowed it.
//
//spgemm:hotpath
func (d *DenseExplicit[T, S]) UpdateMasked(j sparse.Index, x T) bool {
	switch d.state[j] {
	case 2:
		d.vals[j] = d.sr.Plus(d.vals[j], x)
		return true
	case 1:
		d.state[j] = 2
		d.vals[j] = x
		return true
	default:
		return false
	}
}

// Scatter is Update per B entry.
//
//spgemm:hotpath
func (d *DenseExplicit[T, S]) Scatter(aik T, cols []sparse.Index, vals []T) {
	for p, j := range cols {
		d.Update(j, d.sr.Times(aik, vals[p]))
	}
}

// ScatterMasked is UpdateMasked per B entry.
//
//spgemm:hotpath
func (d *DenseExplicit[T, S]) ScatterMasked(aik T, cols []sparse.Index, vals []T) (hits int) {
	for p, j := range cols {
		if d.UpdateMasked(j, d.sr.Times(aik, vals[p])) {
			hits++
		}
	}
	return hits
}

// Gather appends the written entries among maskCols, in mask order.
//
//spgemm:hotpath
func (d *DenseExplicit[T, S]) Gather(
	maskCols []sparse.Index, cols []sparse.Index, vals []T,
) ([]sparse.Index, []T) {
	for _, j := range maskCols {
		if d.state[j] == 2 {
			cols = append(cols, j)
			vals = append(vals, d.vals[j])
		}
	}
	return cols, vals
}

// EnableStats is a no-op: explicit reset has no markers and no probes.
func (d *DenseExplicit[T, S]) EnableStats() {}

// AccumStats reports zeros — nothing this family does is counted.
func (d *DenseExplicit[T, S]) AccumStats() Stats { return Stats{} }

var _ Accumulator[float64] = (*DenseExplicit[float64, semiring.PlusTimes[float64]])(nil)
var _ Instrumented = (*DenseExplicit[float64, semiring.PlusTimes[float64]])(nil)
