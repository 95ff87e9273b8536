// Package accum implements the sparse accumulators of the paper's §III-C.
//
// An accumulator stores the partial sums of one output row of the
// masked-SpGEMM and, in the mask-load iteration spaces, also encodes
// which columns the mask allows. Two families are provided, matching the
// paper:
//
//   - Dense: a vector of size n (the column dimension) with a per-slot
//     marker word. Advancing the marker between rows resets the state
//     implicitly (SuiteSparse:GraphBLAS's trick); the marker width is
//     tunable (8/16/32/64 bits, Fig. 13) and overflow triggers a full
//     clear (the paper's relaxation of the 64-bit marker).
//   - Hash: an open-addressing table sized by max_i nnz(M[i,:]) — the
//     paper's improvement over sizing by the flop upper bound — with the
//     same marker-based reset.
//
// Explicit-reset variants (GrB's strategy: walk the mask columns after
// each row and clear them) are provided for the reset-strategy ablation.
//
// # The batched contract
//
// The row kernels hold an accumulator behind the Accumulator interface,
// and a semiring behind a generic dictionary (every zero-size semiring
// shares one GC shape), so neither call inlines. A per-entry contract
// would therefore pay an interface call plus two dictionary calls for
// every Eq. 2 FLOP. The linear traversals instead hand over one whole B
// row at a time: Scatter(aik, cols, vals) and ScatterMasked(aik, cols,
// vals) stand for the loop
//
//	for p, j := range cols { Update(j, Times(aik, vals[p])) }        // Scatter
//	for p, j := range cols { UpdateMasked(j, Times(aik, vals[p])) }  // ScatterMasked
//
// and must leave the accumulator — values, table layout, Stats — exactly
// as that loop would. Inside, the marker families hoist their arrays
// into locals, probe without a call, and evaluate Times (and Plus) only
// for entries the mask admits; semirings are stateless, so skipping
// Times on a miss cannot change a result. Update and UpdateMasked stay
// as the per-entry reference semantics, and serve co-iteration, which
// has one candidate per binary-search match, not one per B entry.
package accum

import (
	"unsafe"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Marker constrains the marker word used for implicit state reset. A
// narrower marker shrinks the state array (better locality) but wraps
// sooner, forcing more full clears — the trade-off swept in Fig. 13.
type Marker interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Accumulator is the contract every masked-SpGEMM iteration space is
// written against. The per-row protocol is:
//
//	BeginRow()
//	LoadMask(maskCols)            // mask-load and hybrid spaces only
//	Scatter / ScatterMasked ...   // one call per B row (linear traversals)
//	Update ...                    // one call per match (co-iteration)
//	cols, vals = Gather(maskCols, cols, vals)
//
// Gather iterates the mask columns, so output rows come out sorted
// whenever mask rows are sorted, and entries outside the mask — which
// the vanilla space wastefully accumulates — are dropped for free.
type Accumulator[T sparse.Number] interface {
	// BeginRow resets the accumulator state for a new output row.
	BeginRow()
	// LoadMask marks the given columns as allowed by the mask.
	LoadMask(cols []sparse.Index)
	// Update accumulates x into column j unconditionally, creating the
	// entry if absent. Used by the vanilla and co-iteration spaces.
	Update(j sparse.Index, x T)
	// UpdateMasked accumulates x into column j only if LoadMask allowed
	// it, reporting whether it did. Used by the mask-load space.
	UpdateMasked(j sparse.Index, x T) bool
	// Scatter is Update(cols[p], aik ⊗ vals[p]) for every p in order: one
	// A entry times one B row. len(vals) must be at least len(cols).
	Scatter(aik T, cols []sparse.Index, vals []T)
	// ScatterMasked is UpdateMasked(cols[p], aik ⊗ vals[p]) for every p in
	// order, returning how many updates the mask admitted. ⊗ need not be
	// evaluated for the rest.
	ScatterMasked(aik T, cols []sparse.Index, vals []T) (hits int)
	// Gather appends the accumulated entries whose column appears in
	// maskCols (in that order) to cols/vals and returns the extended
	// slices.
	Gather(maskCols []sparse.Index, cols []sparse.Index, vals []T) ([]sparse.Index, []T)
}

// Kind selects an accumulator family.
type Kind int

const (
	// DenseKind is the size-n marker vector accumulator.
	DenseKind Kind = iota
	// HashKind is the open-addressing hash accumulator.
	HashKind
	// DenseExplicitKind is the dense accumulator with GrB-style explicit
	// per-row reset instead of markers.
	DenseExplicitKind
	// HashExplicitKind is the hash accumulator with explicit reset.
	HashExplicitKind
	// SortListKind is the sort-based log accumulator (no per-column
	// state; dedup at gather time).
	SortListKind
	// AutoKind leaves the choice between DenseKind and HashKind to the
	// planner, which derives it per product from the column dimension
	// and the row capacity (internal/core, DeriveAccumulator). New never
	// sees it.
	AutoKind
)

func (k Kind) String() string {
	switch k {
	case DenseKind:
		return "Dense"
	case HashKind:
		return "Hash"
	case DenseExplicitKind:
		return "DenseExplicit"
	case HashExplicitKind:
		return "HashExplicit"
	case SortListKind:
		return "SortList"
	case AutoKind:
		return "Auto"
	default:
		return "Unknown"
	}
}

// StateBytes is the state one marker-based accumulator of kind
// DenseKind or HashKind holds for output rows of cols columns and at
// most rowCap entries: a value and a marker per column for dense, an
// index, a value and a marker per slot of the HashCapacity(rowCap)-slot
// table for hash.
func StateBytes(kind Kind, cols int, rowCap int64, valueBytes, markerBits int) int64 {
	entry := int64(valueBytes + markerBits/8)
	if kind == DenseKind {
		return int64(cols) * entry
	}
	return HashCapacity(rowCap) * (entry + int64(unsafe.Sizeof(sparse.Index(0))))
}

// New builds an accumulator of the given kind for output rows with
// column dimension n and at most rowCap entries per row (the paper sizes
// this by max_i nnz(M[i,:]); vanilla iteration must pass the flop upper
// bound instead). markerBits must be 8, 16, 32 or 64 and is ignored by
// the explicit-reset kinds.
func New[T sparse.Number, S semiring.Semiring[T]](
	kind Kind, sr S, n int, rowCap int64, markerBits int,
) Accumulator[T] {
	switch kind {
	case DenseKind:
		switch markerBits {
		case 8:
			return NewDense[T, S, uint8](sr, n)
		case 16:
			return NewDense[T, S, uint16](sr, n)
		case 32:
			return NewDense[T, S, uint32](sr, n)
		case 64:
			return NewDense[T, S, uint64](sr, n)
		}
	case HashKind:
		switch markerBits {
		case 8:
			return NewHash[T, S, uint8](sr, rowCap)
		case 16:
			return NewHash[T, S, uint16](sr, rowCap)
		case 32:
			return NewHash[T, S, uint32](sr, rowCap)
		case 64:
			return NewHash[T, S, uint64](sr, rowCap)
		}
	case DenseExplicitKind:
		return NewDenseExplicit[T, S](sr, n)
	case HashExplicitKind:
		return NewHashExplicit[T, S](sr, rowCap)
	case SortListKind:
		return NewSortList[T, S](sr, rowCap)
	}
	panic("accum: unsupported kind/markerBits combination")
}
