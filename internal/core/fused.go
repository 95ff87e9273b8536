package core

import (
	"maskedspgemm/internal/exec"
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

// MaskedSpGEMMStreamLower computes L ⊙ (L × L) row by row and hands
// each nonempty row to sink instead of assembling a CSR, L the strictly
// lower triangle of the square a read as a view: row i of L is the
// prefix of a's row i below column i, cut where a kernel reads it, so L
// is never built. Its plan is a's, whose row bound and spans bound L's,
// with the view's row-kernel verdict priced in and cached under a key of
// its own. This is the triangle count's product, which folds each row
// straight into one counter.
//
// sink is called once per output row that holds at least one entry,
// with the row index and the row's sorted column/value slices. The
// slices are workspace-owned and valid only for the duration of the
// call. Calls come from worker goroutines concurrently, but rows are
// disjoint: no row index is delivered twice, so a sink that writes only
// row-i-owned state needs no locking.
//
// symmetric states that a is symmetric in pattern and in values as sr
// reads them (a pattern-symmetric a under PlusPair, which ignores
// values): only then may the verdict route the rows to the merge kernel,
// which reads A[j,k] for L[k,j]. The result is the same either way.
func MaskedSpGEMMStreamLower[T sparse.Number, S semiring.Semiring[T]](
	sr S, a *sparse.CSR[T], symmetric bool, cfg Config,
	sink func(i int, cols []sparse.Index, vals []T),
) error {
	if sink == nil {
		return errConfig("stream fusion needs a non-nil sink")
	}
	p := newProduct(sr, a, a, a, cfg)
	p.lower, p.symmetric = true, symmetric
	p.sink, p.stream = streamSink[T](sink), true
	_, err := p.run(cfg.Context)
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
