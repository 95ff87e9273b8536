package core

import (
	"unsafe"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// MaskedSpGEMMSelectInto computes C = select(M ⊙ (A × B)): the masked
// product with a per-entry keep/rewrite decision fused into the tile
// gather, so entries the selector drops are never assembled. sel maps a
// computed value to its stored replacement and whether to keep the
// entry; it must be pure (it may run concurrently from worker
// goroutines and its call order is unspecified).
//
// This is the k-truss round A ⊙ (A×A) → threshold in one pass: the
// support matrix never exists, only the surviving (rewritten) entries
// reach the output CSR. They are assembled into dst's storage, on
// MaskedSpGEMMInto's terms: overwritten, grown only when too small,
// returned; nil allocates; storage shared with m, a or b is ErrConfig.
func MaskedSpGEMMSelectInto[T sparse.Number, S semiring.Semiring[T]](
	sr S, dst, m, a, b *sparse.CSR[T], cfg Config, sel func(T) (T, bool),
) (*sparse.CSR[T], error) {
	if sel == nil {
		return nil, errConfig("select fusion needs a non-nil selector")
	}
	p := newProduct(sr, m, a, b, cfg)
	p.dst = dst
	p.sink = selectSink[T](sel)
	p.marker = obs.FusedCounters{SelectRuns: 1}
	return p.run(cfg.Context)
}

// selectSink compacts each freshly gathered row in place through the
// selector, before the entries ever leave the staging buffer.
type selectSink[T sparse.Number] func(T) (T, bool)

//spgemm:hotpath
func (sel selectSink[T]) row(_ int, buf *exec.TileBuf[T], from int) {
	w := from
	for p := from; p < len(buf.Cols); p++ {
		if v, ok := sel(buf.Vals[p]); ok {
			buf.Cols[w] = buf.Cols[p]
			buf.Vals[w] = v
			w++
		}
	}
	buf.Cols = buf.Cols[:w]
	buf.Vals = buf.Vals[:w]
}

func (selectSink[T]) account(fc *obs.FusedCounters, gathered, kept int64) {
	fc.SelectKept += kept
	fc.SelectDropped += gathered - kept
}

// MaskedSpGEMMStream computes M ⊙ (A × B) row by row and hands each
// nonempty row to sink instead of assembling a CSR — the terminal
// multiply of a chain whose consumer wants rows, not a matrix (the
// triangle count folds each row straight into one counter).
//
// sink is called once per output row that holds at least one entry,
// with the row index and the row's sorted column/value slices. The
// slices are workspace-owned and valid only for the duration of the
// call. Calls come from worker goroutines concurrently, but rows are
// disjoint: no row index is delivered twice, so a sink that writes only
// row-i-owned state needs no locking.
func MaskedSpGEMMStream[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
	sink func(i int, cols []sparse.Index, vals []T),
) error {
	return streamRows(newProduct(sr, m, a, b, cfg), sink)
}

// MaskedSpGEMMStreamLower is MaskedSpGEMMStream of L ⊙ (L × L), L the
// strictly lower triangle of the square a read as a view: row i of L is
// the prefix of a's row i below column i, cut where a kernel reads it,
// so L is never built. It runs on a's own cached plan, whose row bound
// and spans bound L's. This is the triangle count's product.
func MaskedSpGEMMStreamLower[T sparse.Number, S semiring.Semiring[T]](
	sr S, a *sparse.CSR[T], cfg Config,
	sink func(i int, cols []sparse.Index, vals []T),
) error {
	p := newProduct(sr, a, a, a, cfg)
	p.lower = true
	return streamRows(p, sink)
}

// streamRows runs p with every nonempty row handed to sink.
func streamRows[T sparse.Number, S semiring.Semiring[T]](
	p product[T, S], sink func(i int, cols []sparse.Index, vals []T),
) error {
	if sink == nil {
		return errConfig("stream fusion needs a non-nil sink")
	}
	p.sink, p.stream = streamSink[T](sink), true
	p.marker = obs.FusedCounters{StreamRuns: 1}
	_, err := p.run(p.cfg.Context)
	return err
}

// streamSink delivers each nonempty row to the caller's function as soon
// as it is gathered.
type streamSink[T sparse.Number] func(i int, cols []sparse.Index, vals []T)

//spgemm:hotpath
func (fn streamSink[T]) row(i int, buf *exec.TileBuf[T], from int) {
	if len(buf.Cols) > from {
		fn(i, buf.Cols[from:], buf.Vals[from:])
	}
}

func (streamSink[T]) account(fc *obs.FusedCounters, _, kept int64) {
	fc.MidEntries += kept
	fc.MidBytes += kept * fusedEntrySize[T]()
}

// fusedEntrySize is the staging cost of one intermediate entry: a
// column index plus a value.
func fusedEntrySize[T sparse.Number]() int64 {
	var z T
	var j sparse.Index
	return int64(unsafe.Sizeof(z)) + int64(unsafe.Sizeof(j))
}
