package accum

import (
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Dense is the dense marker-based accumulator: one value slot and one
// marker word per column of a window of len(state) columns starting at
// column lo (slot j-lo holds column j). At full width (NewDense) lo is
// always 0. A narrower window (NewDenseWindow, sized by the planner to
// the mask rows' column spans) moves lo to a row's first mask column
// when the row ends past it, and LoadMask routes a row spanning more
// columns than the window to a hash table the accumulator holds
// (spill): each method then branches once per call, not per entry.
// Rows that load no mask index from lo = 0, so they need full width.
//
// Per-row reset is O(1) — advance the marker — except when the marker
// wraps, which forces a clear of the window (paper §III-C: "overflow is
// detected and the state is fully reset"). Each row owns two marker
// values, mask (odd, allowed-but-unwritten) and entry = mask+1
// (written); anything else is stale. Markers only advance, so a slot
// written in an earlier row, at whatever lo, stays invisible.
//
// The fields the row loops read share the first cache line, and the
// header fills two, so per-worker accumulators never share one.
type Dense[T sparse.Number, S semiring.Semiring[T], M Marker] struct {
	sr    S
	state []M
	vals  []T
	mask  M            // current row's mask marker (odd); entry marker is mask+1
	lo    sparse.Index // the window's first column this row
	wide  bool         // this row spans more than the window: spill serves it
	full  bool         // the window is every column: one past it is out of range
	stats bool         // EnableStats was called (a lazily built spill inherits it)
	// spill serves the rows wider than the window (nil until planned or
	// met); growHook is the AccumGrow seam it inherits.
	spill    *Hash[T, S, M]
	growHook func()
	// Clears counts marker-overflow resets, Spills rows routed to the
	// spill table; exposed for tests and benches.
	Clears, Spills int64
	_              [32]byte // pad to two cache lines (TestHeadersFillCacheLines)
}

// NewDense returns a full-width dense accumulator for rows of column
// dimension n.
func NewDense[T sparse.Number, S semiring.Semiring[T], M Marker](sr S, n int) *Dense[T, S, M] {
	return newDenseM[T, S, M](sr, n, 0, true)
}

// NewDenseWindow returns a dense accumulator over a window of window
// columns, with a spill table for spillCap entries when spillCap > 0
// (otherwise a wider row, from a stale plan, builds one on first sight).
func NewDenseWindow[T sparse.Number, S semiring.Semiring[T], M Marker](sr S, window int, spillCap int64) *Dense[T, S, M] {
	return newDenseM[T, S, M](sr, window, spillCap, false)
}

func newDenseM[T sparse.Number, S semiring.Semiring[T], M Marker](sr S, width int, spillCap int64, full bool) *Dense[T, S, M] {
	d := &Dense[T, S, M]{sr: sr, state: make([]M, width), vals: make([]T, width), mask: 1, full: full}
	if spillCap > 0 {
		d.spill = NewHash[T, S, M](sr, spillCap)
	}
	return d
}

// BeginRow advances the marker pair, clearing the window only when the
// marker would wrap, and points the window back at column 0.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) BeginRow() {
	d.lo, d.wide = 0, false
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

// LoadMask marks cols (sorted) as allowed for this row. The window stays
// at column 0 when the row ends inside it — always, at full width — and
// otherwise moves to start at cols[0]; a row wider than the window goes
// to the spill table.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) LoadMask(cols []sparse.Index) {
	if len(cols) == 0 {
		return
	}
	if last := cols[len(cols)-1]; int(last) >= len(d.state) {
		if d.full {
			_ = d.state[last] // past a full width: a corrupt operand, out of range
		}
		if int(last-cols[0]) >= len(d.state) {
			d.spillRow(cols)
			return
		}
		d.lo = cols[0]
	}
	state, m, lo := d.state, d.mask, d.lo
	for _, j := range cols {
		state[j-lo] = m
	}
}

// spillRow routes the current row to the spill table.
func (d *Dense[T, S, M]) spillRow(cols []sparse.Index) {
	if d.spill == nil {
		d.spill = NewHash[T, S, M](d.sr, int64(len(cols)))
		d.spill.growHook = d.growHook
		if d.stats {
			d.spill.EnableStats()
		}
	}
	d.wide = true
	d.Spills++
	d.spill.BeginRow()
	d.spill.LoadMask(cols)
}

// Update accumulates x into column j, creating the entry if the slot is
// empty or stale.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) Update(j sparse.Index, x T) {
	if d.wide {
		d.spill.Update(j, x)
		return
	}
	j -= d.lo
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
	if d.wide {
		return d.spill.UpdateMasked(j, x)
	}
	s := uint(uint32(j - d.lo))
	if s >= uint(len(d.state)) {
		if d.full {
			_ = d.state[s] // past a full width: a corrupt operand, out of range
		}
		return false
	}
	entry := d.mask + 1
	switch d.state[s] {
	case entry:
		d.vals[s] = d.sr.Plus(d.vals[s], x)
		return true
	case d.mask:
		d.state[s] = entry
		d.vals[s] = x
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
	if d.wide {
		d.spill.Scatter(aik, cols, vals)
		return
	}
	vals = vals[:len(cols)]
	state := d.state
	dv := d.vals[:len(state)]
	entry, lo := d.mask+1, d.lo
	for p, j := range cols {
		j -= lo
		x := d.sr.Times(aik, vals[p])
		if state[j] == entry {
			x = d.sr.Plus(dv[j], x)
		}
		state[j] = entry
		dv[j] = x
	}
}

// ScatterMasked is the batched UpdateMasked. A column outside the window
// costs one compare, one outside the mask a state load; the semiring is
// consulted only for columns the mask admits.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) ScatterMasked(aik T, cols []sparse.Index, vals []T) (hits int) {
	if d.wide {
		return d.spill.ScatterMasked(aik, cols, vals)
	}
	vals = vals[:len(cols)]
	state := d.state
	dv := d.vals[:len(state)]
	mask, lo := d.mask, d.lo
	for p, j := range cols {
		// The window test is the bounds check: below lo wraps high. Past
		// a full width the column is out of range, and indexing panics.
		s := uint(uint32(j - lo))
		if s < uint(len(state)) {
			// One test for "neither mask nor entry = mask+1": the
			// difference wraps high below mask.
			st := state[s]
			if st-mask > 1 {
				continue
			}
			x := d.sr.Times(aik, vals[p])
			if st != mask {
				x = d.sr.Plus(dv[s], x)
			}
			state[s] = mask + 1
			dv[s] = x
			hits++
		} else if d.full {
			_ = state[s]
		}
	}
	return hits
}

// Gather appends the written entries among maskCols, in mask order.
//
//spgemm:hotpath
func (d *Dense[T, S, M]) Gather(
	maskCols []sparse.Index, cols []sparse.Index, vals []T,
) ([]sparse.Index, []T) {
	if d.wide {
		return d.spill.Gather(maskCols, cols, vals)
	}
	entry, lo := d.mask+1, d.lo
	for _, j := range maskCols {
		if d.state[j-lo] == entry {
			cols = append(cols, j)
			vals = append(vals, d.vals[j-lo])
		}
	}
	return cols, vals
}

// EnableStats turns on the spill table's probe counting; the window has
// no probe loop.
func (d *Dense[T, S, M]) EnableStats() {
	d.stats = true
	if d.spill != nil {
		d.spill.EnableStats()
	}
}

// AccumStats returns the window's counters plus the spill table's.
func (d *Dense[T, S, M]) AccumStats() Stats {
	s := Stats{Clears: d.Clears, Spills: d.Spills}
	if d.spill != nil {
		s.Add(d.spill.AccumStats())
	}
	return s
}

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
	_       [56]byte // pad to two cache lines: touched is written every row
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
