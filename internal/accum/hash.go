package accum

import (
	"math/bits"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// fibHash is the 64-bit Fibonacci multiplicative hash constant.
const fibHash = 0x9E3779B97F4A7C15

// Hash is the open-addressing hash accumulator with marker-based reset.
// The table is sized for the per-row entry bound (the paper sizes it by
// max_i nnz(M[i,:]); see Accumulator docs) at a load factor of at most
// 1/2, and grows by doubling if a row exceeds the bound — robustness the
// vanilla iteration space needs, since its row population is the full
// unmasked product.
//
// A slot is live for the current row iff its marker state equals the
// row's mask or entry marker; everything else is stale garbage, so reset
// is the same O(1) marker advance as in Dense.
type Hash[T sparse.Number, S semiring.Semiring[T], M Marker] struct {
	sr    S
	keys  []sparse.Index
	vals  []T
	state []M
	shift uint // 64 - log2(len(keys))
	mask  M    // current row's mask marker (odd)
	used  int  // live slots this row
	// Clears counts full resets from marker overflow; Grows counts table
	// doublings. Both are observability hooks for tests and ablations.
	Clears int64
	Grows  int64
	// stats, when non-nil, receives per-probe counts (EnableStats). Kept
	// behind a pointer so the disabled hot path is one predictable
	// nil-check per probe sequence.
	stats *Stats
	// growHook, when non-nil, runs at the entry of every table grow
	// before any state moves — the chaos layer's AccumGrow seam
	// (SetGrowHook). nil is the disabled state.
	growHook func()
}

// NewHash returns a hash accumulator able to hold rowCap entries per row
// before growing.
func NewHash[T sparse.Number, S semiring.Semiring[T], M Marker](sr S, rowCap int64) *Hash[T, S, M] {
	capacity := int(HashCapacity(rowCap))
	h := &Hash[T, S, M]{
		sr:    sr,
		keys:  make([]sparse.Index, capacity),
		vals:  make([]T, capacity),
		state: make([]M, capacity),
		shift: uint(64 - bits.TrailingZeros(uint(capacity))),
	}
	h.mask = 1
	return h
}

// HashCapacity is the slot count of the table NewHash builds for rowCap
// entries per row: the smallest power of two holding them at a load
// factor of at most 1/2, and at least 8.
func HashCapacity(rowCap int64) int64 {
	capacity := int64(8)
	for capacity < 2*rowCap {
		capacity <<= 1
	}
	return capacity
}

//spgemm:hotpath
func (h *Hash[T, S, M]) slotOf(j sparse.Index) int {
	return int((uint64(uint32(j)) * fibHash) >> h.shift)
}

// probe returns the slot holding key j for the current row, or the first
// reusable slot in its chain. found reports which.
//
//spgemm:hotpath
func (h *Hash[T, S, M]) probe(j sparse.Index) (slot int, found bool) {
	entry := h.mask + 1
	capMask := len(h.keys) - 1
	slot = h.slotOf(j)
	if h.stats != nil {
		return h.probeCounted(j, entry, capMask, slot)
	}
	for {
		st := h.state[slot]
		if st != h.mask && st != entry {
			return slot, false
		}
		if h.keys[slot] == j {
			return slot, true
		}
		slot = (slot + 1) & capMask
	}
}

// probeCounted is probe with per-step accounting, split out so the
// disabled path's loop stays increment-free.
//
//spgemm:hotpath
func (h *Hash[T, S, M]) probeCounted(j sparse.Index, entry M, capMask, slot int) (int, bool) {
	h.stats.Probes++
	for {
		st := h.state[slot]
		if st != h.mask && st != entry {
			return slot, false
		}
		if h.keys[slot] == j {
			return slot, true
		}
		slot = (slot + 1) & capMask
		h.stats.Collisions++
	}
}

// EnableStats turns on probe/collision counting for this accumulator.
func (h *Hash[T, S, M]) EnableStats() {
	if h.stats == nil {
		h.stats = new(Stats)
	}
}

// AccumStats returns the cumulative observability counters.
func (h *Hash[T, S, M]) AccumStats() Stats {
	s := Stats{Clears: h.Clears, Grows: h.Grows}
	if h.stats != nil {
		s.Probes = h.stats.Probes
		s.Collisions = h.stats.Collisions
	}
	return s
}

// BeginRow advances the marker pair, clearing the table only on wrap.
//
//spgemm:hotpath
func (h *Hash[T, S, M]) BeginRow() {
	h.used = 0
	var maxM M
	maxM--
	if h.mask >= maxM-2 {
		clear(h.state)
		h.mask = 1
		h.Clears++
		return
	}
	h.mask += 2
}

func (h *Hash[T, S, M]) maybeGrow() {
	if 2*h.used <= len(h.keys) {
		return
	}
	if h.growHook != nil {
		h.growHook()
	}
	h.Grows++
	oldKeys, oldVals, oldState := h.keys, h.vals, h.state
	oldMask, oldEntry := h.mask, h.mask+1
	capacity := 2 * len(oldKeys)
	h.keys = make([]sparse.Index, capacity)
	h.vals = make([]T, capacity)
	h.state = make([]M, capacity)
	h.shift = uint(64 - bits.TrailingZeros(uint(capacity)))
	h.mask = 1
	for s, st := range oldState {
		if st != oldMask && st != oldEntry {
			continue
		}
		slot, _ := h.probe(oldKeys[s])
		h.keys[slot] = oldKeys[s]
		h.vals[slot] = oldVals[s]
		if st == oldMask {
			h.state[slot] = h.mask
		} else {
			h.state[slot] = h.mask + 1
		}
	}
}

// LoadMask inserts cols as allowed-but-unwritten entries.
//
//spgemm:hotpath
func (h *Hash[T, S, M]) LoadMask(cols []sparse.Index) {
	for _, j := range cols {
		slot, found := h.probe(j)
		if !found {
			h.keys[slot] = j
			h.state[slot] = h.mask
			h.used++
			//lint:ignore hotpathalloc amortized: doubling keeps per-insert cost O(1), and growth means the row blew its mask bound
			h.maybeGrow()
		}
	}
}

// Update accumulates x into column j, inserting if absent.
//
//spgemm:hotpath
func (h *Hash[T, S, M]) Update(j sparse.Index, x T) {
	slot, found := h.probe(j)
	entry := h.mask + 1
	if found {
		if h.state[slot] == entry {
			h.vals[slot] = h.sr.Plus(h.vals[slot], x)
		} else {
			h.state[slot] = entry
			h.vals[slot] = x
		}
		return
	}
	h.keys[slot] = j
	h.state[slot] = entry
	h.vals[slot] = x
	h.used++
	//lint:ignore hotpathalloc amortized: doubling keeps per-insert cost O(1), and growth means the row blew its mask bound
	h.maybeGrow()
}

// UpdateMasked accumulates x into column j only if LoadMask inserted it.
//
//spgemm:hotpath
func (h *Hash[T, S, M]) UpdateMasked(j sparse.Index, x T) bool {
	slot, found := h.probe(j)
	if !found {
		return false
	}
	entry := h.mask + 1
	if h.state[slot] == entry {
		h.vals[slot] = h.sr.Plus(h.vals[slot], x)
	} else {
		h.state[slot] = entry
		h.vals[slot] = x
	}
	return true
}

// Scatter is the batched Update: one A entry times one B row, inserting
// absent columns. The table's arrays and marker pair live in locals for
// the whole row and the probe sequence is open-coded, so a FLOP costs no
// call beyond the semiring's; a grow mid-row re-loads them.
//
//spgemm:hotpath
func (h *Hash[T, S, M]) Scatter(aik T, cols []sparse.Index, vals []T) {
	vals = vals[:len(cols)]
	state, keys, hv := h.state, h.keys, h.vals
	mask, shift, capMask := h.mask, h.shift, len(h.keys)-1
	entry := mask + 1
	var collisions int64
	for p, j := range cols {
		slot := int((uint64(uint32(j)) * fibHash) >> shift)
		for {
			st := state[slot]
			if st != mask && st != entry {
				keys[slot] = j
				state[slot] = entry
				hv[slot] = h.sr.Times(aik, vals[p])
				h.used++
				if 2*h.used > len(keys) {
					//lint:ignore hotpathalloc amortized: doubling keeps per-insert cost O(1), and growth means the row blew its mask bound
					h.maybeGrow()
					state, keys, hv = h.state, h.keys, h.vals
					mask, shift, capMask = h.mask, h.shift, len(h.keys)-1
					entry = mask + 1
				}
				break
			}
			if keys[slot] == j {
				x := h.sr.Times(aik, vals[p])
				if st == entry {
					x = h.sr.Plus(hv[slot], x)
				}
				state[slot] = entry
				hv[slot] = x
				break
			}
			slot = (slot + 1) & capMask
			collisions++
		}
	}
	if h.stats != nil {
		h.stats.Probes += int64(len(cols))
		h.stats.Collisions += collisions
	}
}

// ScatterMasked is the batched UpdateMasked — the inner loop of the
// mask-load and hybrid spaces, where most probes miss. The miss path
// reads the state array alone and makes no call; the semiring is
// consulted only once a column is known to be in the mask.
//
//spgemm:hotpath
func (h *Hash[T, S, M]) ScatterMasked(aik T, cols []sparse.Index, vals []T) (hits int) {
	vals = vals[:len(cols)]
	state := h.state
	// The three arrays are one length; saying so drops the keys and vals
	// bounds checks once state[slot] has passed its own.
	keys, hv := h.keys[:len(state)], h.vals[:len(state)]
	mask, shift, capMask := h.mask, h.shift&63, len(state)-1
	entry := mask + 1
	var collisions int64
	for p, j := range cols {
		slot := int((uint64(uint32(j)) * fibHash) >> shift)
		for {
			st := state[slot]
			if st != mask && st != entry {
				break
			}
			if keys[slot] == j {
				x := h.sr.Times(aik, vals[p])
				if st == entry {
					x = h.sr.Plus(hv[slot], x)
				}
				state[slot] = entry
				hv[slot] = x
				hits++
				break
			}
			slot = (slot + 1) & capMask
			collisions++
		}
	}
	if h.stats != nil {
		h.stats.Probes += int64(len(cols))
		h.stats.Collisions += collisions
	}
	return hits
}

// Gather appends the written entries among maskCols, in mask order.
//
//spgemm:hotpath
func (h *Hash[T, S, M]) Gather(
	maskCols []sparse.Index, cols []sparse.Index, vals []T,
) ([]sparse.Index, []T) {
	entry := h.mask + 1
	for _, j := range maskCols {
		if slot, found := h.probe(j); found && h.state[slot] == entry {
			cols = append(cols, j)
			vals = append(vals, h.vals[slot])
		}
	}
	return cols, vals
}

var _ Accumulator[float64] = (*Hash[float64, semiring.PlusTimes[float64], uint32])(nil)

// HashExplicit is the hash accumulator with GrB's explicit reset: live
// slots are remembered and cleared one by one at the start of the next
// row. Used for the reset-strategy ablation.
type HashExplicit[T sparse.Number, S semiring.Semiring[T]] struct {
	inner *Hash[T, S, uint64]
	live  []int
}

// NewHashExplicit returns an explicit-reset hash accumulator able to
// hold rowCap entries per row before growing.
func NewHashExplicit[T sparse.Number, S semiring.Semiring[T]](sr S, rowCap int64) *HashExplicit[T, S] {
	return &HashExplicit[T, S]{inner: NewHash[T, S, uint64](sr, rowCap)}
}

// BeginRow clears exactly the slots the previous row populated. The
// inner marker never advances, so state words stay within one epoch.
//
//spgemm:hotpath
func (h *HashExplicit[T, S]) BeginRow() {
	for _, slot := range h.live {
		h.inner.state[slot] = 0
	}
	h.live = h.live[:0]
	h.inner.used = 0
}

// LoadMask inserts cols as allowed-but-unwritten entries.
//
//spgemm:hotpath
func (h *HashExplicit[T, S]) LoadMask(cols []sparse.Index) {
	for _, j := range cols {
		slot, found := h.inner.probe(j)
		if !found {
			h.inner.keys[slot] = j
			h.inner.state[slot] = h.inner.mask
			h.inner.used++
			h.live = append(h.live, slot)
			if 2*h.inner.used > len(h.inner.keys) {
				h.growAndRelocate()
			}
		}
	}
}

// Update accumulates x into column j, inserting if absent.
//
//spgemm:hotpath
func (h *HashExplicit[T, S]) Update(j sparse.Index, x T) {
	slot, found := h.inner.probe(j)
	entry := h.inner.mask + 1
	if found {
		if h.inner.state[slot] == entry {
			h.inner.vals[slot] = h.inner.sr.Plus(h.inner.vals[slot], x)
		} else {
			h.inner.state[slot] = entry
			h.inner.vals[slot] = x
		}
		return
	}
	h.inner.keys[slot] = j
	h.inner.state[slot] = entry
	h.inner.vals[slot] = x
	h.inner.used++
	h.live = append(h.live, slot)
	if 2*h.inner.used > len(h.inner.keys) {
		h.growAndRelocate()
	}
}

func (h *HashExplicit[T, S]) growAndRelocate() {
	h.inner.maybeGrow()
	// Slot numbers moved; rebuild the live list from the new table.
	h.live = h.live[:0]
	mask, entry := h.inner.mask, h.inner.mask+1
	for slot, st := range h.inner.state {
		if st == mask || st == entry {
			h.live = append(h.live, slot)
		}
	}
}

// UpdateMasked accumulates x into column j only if LoadMask inserted it.
//
//spgemm:hotpath
func (h *HashExplicit[T, S]) UpdateMasked(j sparse.Index, x T) bool {
	return h.inner.UpdateMasked(j, x)
}

// Scatter is Update per B entry: inserts must be tracked in the live
// list, which only this wrapper's Update does.
//
//spgemm:hotpath
func (h *HashExplicit[T, S]) Scatter(aik T, cols []sparse.Index, vals []T) {
	for p, j := range cols {
		h.Update(j, h.inner.sr.Times(aik, vals[p]))
	}
}

// ScatterMasked never inserts, so the inner table's batched loop serves.
//
//spgemm:hotpath
func (h *HashExplicit[T, S]) ScatterMasked(aik T, cols []sparse.Index, vals []T) int {
	return h.inner.ScatterMasked(aik, cols, vals)
}

// Gather appends the written entries among maskCols, in mask order.
//
//spgemm:hotpath
func (h *HashExplicit[T, S]) Gather(
	maskCols []sparse.Index, cols []sparse.Index, vals []T,
) ([]sparse.Index, []T) {
	return h.inner.Gather(maskCols, cols, vals)
}

// EnableStats turns on probe/collision counting on the inner table.
func (h *HashExplicit[T, S]) EnableStats() { h.inner.EnableStats() }

// AccumStats returns the inner table's cumulative counters. Clears stays
// zero by construction — explicit reset never overflows a marker.
func (h *HashExplicit[T, S]) AccumStats() Stats { return h.inner.AccumStats() }

var _ Accumulator[float64] = (*HashExplicit[float64, semiring.PlusTimes[float64]])(nil)
var _ Instrumented = (*HashExplicit[float64, semiring.PlusTimes[float64]])(nil)
var _ Instrumented = (*Hash[float64, semiring.PlusTimes[float64], uint32])(nil)
