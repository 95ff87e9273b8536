package graph

import (
	"fmt"
	"slices"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// KTrussResult reports the outcome of a k-truss computation.
type KTrussResult struct {
	// Truss is the adjacency matrix of the k-truss subgraph: the maximal
	// subgraph in which every edge lies in at least k-2 triangles. It
	// never shares storage with the input, and its arrays hold at most
	// twice its entries.
	Truss *sparse.CSR[float64]
	// Rounds is the number of support-and-prune iterations executed,
	// delta rounds included: a full product every round runs as many.
	Rounds int
	// Edges is the number of undirected edges remaining (nnz/2).
	Edges int64
}

// KTruss computes the k-truss of the undirected simple graph a using the
// linear-algebraic formulation (paper references [12]–[14]): iterate
// S = A ⊙ (A×A) (per-edge triangle support via the masked SpGEMM), drop
// edges with support < k-2, and repeat until no edge is dropped. A round
// that multiplies drops those edges inside the product's gather
// (core.MaskedSpGEMMSelectInto), so their support is never assembled;
// from the second round on, a round the rule prices lower updates the
// last round's support instead of multiplying again (peel), with the
// same support, graphs and Rounds.
//
// The update needs a symmetric pattern, as an undirected graph's is. a's
// symmetry is read from sym when the rule first picks an update; sym
// remembers it across calls (nil: checked in this call, at most once).
// A non-symmetric a runs every round as a full product of its directed
// pattern and returns that iteration's fixed point.
func KTruss(a *sparse.CSR[float64], sym *Symmetry, k int, cfg core.Config) (*KTrussResult, error) {
	return peel(a, sym, k, cfg)
}

// peel runs k-truss rounds on a until one keeps every edge or none. A
// full round multiplies the round's graph A and keeps, inside the
// product, the edges A′ whose support S reaches k-2, carrying it; D =
// A − A′ is cut by comparing the two patterns (delta.diff) once the
// rule may pick a delta round. As
// A′·A′ = A·A − D·A − A′·D, a delta round (delta.update) turns S into
// A′'s support by subtracting A′ ⊙ (D·A + A′·D), computed from the rows
// of D alone, in place; supports are integer counts, so it is the full
// product's bit for bit. An edge in no triangle adds nothing there: a
// delta round's prune leaves it out of the next D, but a full round's D
// holds it, as the product never reports its support.
//
// The rule (delta.price) prices both kinds by what their products' row
// loops visit, rows(A) + nnz(M) + nnz(A) each, plus probeWeight per
// probe of the rows the hybrid kernel co-iterates; the B-row scans
// stream and cost little beside a visit.
//
// The input is never written, and the full rounds' results shrink, so
// two buffers take turns: the one the last full round read becomes the
// next one's destination. When the first round keeps every edge its
// result, given a's values, is the truss, so the result never aliases
// a; otherwise the truss's support is rewritten to 1 at the end, and a
// truss much smaller than the buffer it ends in is copied out (fit).
//
// The first round multiplies a header of its own over a's arrays, so,
// like every later round, it is a new operand to an engine's plan
// cache: a k-truss call plans each of its rounds, and no call reuses
// a plan keyed on the caller's matrix.
func peel(a *sparse.CSR[float64], sym *Symmetry, k int, cfg core.Config) (*KTrussResult, error) {
	if k < 3 {
		return nil, fmt.Errorf("%w: k-truss needs k >= 3, got %d", core.ErrConfig, k)
	}
	if sym == nil {
		sym = new(Symmetry)
	}
	sr := semiring.PlusPair[float64]{}
	need := float64(k - 2)
	var keep func(float64) (float64, bool)
	if k < len(supportSelectors) {
		keep = supportSelectors[k]
	} else {
		keep = atLeast(need)
	}
	hook := roundHook
	in := *a
	cur := &in
	var spare *sparse.CSR[float64]
	dl := delta{a: a, sym: sym}
	isDelta, visits, probes := false, int64(a.Rows)+2*a.NNZ(), int64(0)
	for rounds := 1; ; rounds++ {
		before := cur.NNZ()
		next := cur
		var err error
		if isDelta {
			var drops bool
			if drops, err = dl.update(sr, cur, need, cfg); drops {
				dl.prune(cur, need)
			}
		} else {
			next, err = core.MaskedSpGEMMSelectInto[float64](sr, spare, cur, cur, cur, cfg, keep)
		}
		if err != nil {
			return nil, err
		}
		kept := next.NNZ()
		st := RoundStat{Round: rounds, Delta: isDelta, Visits: visits, Probes: probes, Support: next}
		if kept != before && kept != 0 {
			isDelta, visits, probes = dl.price(cur, next, hook.forced(), cfg)
		}
		if hook != nil && hook.Observe != nil {
			hook.Observe(st)
		}
		if kept == before || kept == 0 {
			for p := range next.Val {
				next.Val[p] = 1
			}
			if cur == &in {
				// next kept all of a's pattern: it takes a's values.
				copy(next.Val, a.Val)
			}
			return &KTrussResult{Truss: fit(next), Rounds: rounds, Edges: kept / 2}, nil
		}
		if cur != &in && next != cur {
			spare = cur
		}
		cur = next
	}
}

// probeWeight is what one co-iteration probe costs in visits. The
// value is internal/model.DerivedRoundWeights evaluated on the reference
// host's round costs (a test there fails when the two drift).
const probeWeight = 0.25

// RoundWeights returns the round rule's one weight, a probe's.
func RoundWeights() (probe float64) { return probeWeight }

// delta is what a delta round needs besides the support: the dropped
// edges D, by vertex; the vertices R that lost one; the rows R of D and
// of A′, row-compacted (DR and MR); the lent storage its products take
// turns in; the input a, whose values D, DR and MR borrow (PlusPair
// reads none, but a CSR holds one per entry, and none of the three
// holds more entries than a); and sym, what is known of a's symmetry.
type delta struct {
	d, dr, mr sparse.CSR[float64]
	rows      []int
	c         *sparse.CSR[float64]
	a         *sparse.CSR[float64]
	sym       *Symmetry
}

// price decides how the round after the one that kept next out of cur
// runs, and returns the visits and probes it is priced at. A full round
// kept next in a matrix of its own and leaves D to be cut out of cur
// here; a delta round pruned cur in place (next is cur) and cut D. A
// delta round visits at least 2·|D|, so a round that drops most of the
// graph settles the verdict before D is cut or planned, and the full
// round's probes are counted only when its visits alone do not. A round
// the rule prices as a delta round runs as one only on a symmetric a,
// which is asked of the memo then.
func (dl *delta) price(cur, next *sparse.CSR[float64], force RoundKind, cfg core.Config) (isDelta bool, visits, probes int64) {
	full, fp := int64(next.Rows)+2*next.NNZ(), int64(-1)
	if force == FullRounds {
		return false, full, 0
	}
	fullCost := func() float64 {
		if fp < 0 {
			fp = probesOf(next, next, next, cfg)
		}
		return float64(full) + probeWeight*float64(fp)
	}
	afterFull := next != cur
	dropped := cur.NNZ() - next.NNZ()
	if !afterFull {
		dropped = dl.d.NNZ()
	}
	if lower := float64(2 * dropped); force == AutoRounds && lower >= float64(full) && lower >= fullCost() {
		return false, full, fp
	}
	if afterFull {
		dl.diff(cur, next)
	}
	visits, probes = dl.plan(next, cfg)
	cost := float64(visits) + probeWeight*float64(probes)
	if (force == DeltaRounds || cost < float64(full) || cost < fullCost()) && dl.sym.Of(dl.a) {
		return true, visits, probes
	}
	return false, full, max(fp, 0)
}

// probesOf is the probes the hybrid kernel spends co-iterating rows of
// M ⊙ (A × B); other iteration spaces spend none. The rounds' products
// have already checked the shapes ProfileMasked checks.
func probesOf(m, a, b *sparse.CSR[float64], cfg core.Config) int64 {
	if cfg.Iteration != core.Hybrid {
		return 0
	}
	p, _ := core.ProfileMasked(m, a, b, cfg.Kappa)
	return p.CoIterProbeCost
}

// prune keeps the entries of the support matrix s, as a delta round
// left it, that reach need, with their support, compacting s in place
// into the next round's graph; the dropped entries that lay in a
// triangle go to D.
func (dl *delta) prune(s *sparse.CSR[float64], need float64) {
	dropped := 0
	for _, v := range s.Val[:s.NNZ()] {
		if v > 0 && v < need {
			dropped++
		}
	}
	dl.reset(s.Rows, dropped)
	var w, lo int64
	for i := 0; i < s.Rows; i++ {
		hi := s.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			if v := s.Val[p]; v >= need {
				s.ColIdx[w] = s.ColIdx[p]
				s.Val[w] = v
				w++
			} else if v > 0 {
				dl.d.ColIdx = append(dl.d.ColIdx, s.ColIdx[p])
			}
		}
		s.RowPtr[i+1] = w
		dl.d.RowPtr[i+1] = int64(len(dl.d.ColIdx))
		lo = hi
	}
	s.ColIdx = s.ColIdx[:w]
	s.Val = s.Val[:w]
}

// diff sets D to a − kept, for a full round whose kept edges are a
// subset of a's: a row that kept its length lost nothing.
func (dl *delta) diff(a, kept *sparse.CSR[float64]) {
	dl.reset(a.Rows, int(a.NNZ()-kept.NNZ()))
	for i := 0; i < a.Rows; i++ {
		if ks := kept.RowCols(i); len(ks) < int(a.RowNNZ(i)) {
			for _, j := range a.RowCols(i) {
				if len(ks) > 0 && ks[0] == j {
					ks = ks[1:]
				} else {
					dl.d.ColIdx = append(dl.d.ColIdx, j)
				}
			}
		}
		dl.d.RowPtr[i+1] = int64(len(dl.d.ColIdx))
	}
}

// reset empties D for a round of the n-vertex graph that drops dropped
// edges.
func (dl *delta) reset(n, dropped int) {
	if dl.d.RowPtr == nil {
		dl.d = sparse.CSR[float64]{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	}
	dl.d.ColIdx = slices.Grow(dl.d.ColIdx[:0], dropped)
}

// plan lists R, cuts DR out of D and copies MR out of the kept graph s,
// and returns a delta round's visits and probes: its two products each
// visit |R| rows, nnz(MR) mask entries and |D| entries of DR.
func (dl *delta) plan(s *sparse.CSR[float64], cfg core.Config) (visits, probes int64) {
	d, dr, mr := &dl.d, &dl.dr, &dl.mr
	nr, nm := 0, 0
	for i := 0; i < d.Rows; i++ {
		if d.RowNNZ(i) > 0 {
			nr, nm = nr+1, nm+int(s.RowNNZ(i))
		}
	}
	dl.rows = slices.Grow(dl.rows[:0], nr)
	dr.RowPtr = append(slices.Grow(dr.RowPtr[:0], nr+1), 0)
	mr.RowPtr = append(slices.Grow(mr.RowPtr[:0], nr+1), 0)
	mr.ColIdx = slices.Grow(mr.ColIdx[:0], nm)
	for i := 0; i < d.Rows; i++ {
		if d.RowNNZ(i) > 0 {
			dl.rows = append(dl.rows, i)
			dr.RowPtr = append(dr.RowPtr, d.RowPtr[i+1])
			mr.ColIdx = append(mr.ColIdx, s.RowCols(i)...)
			mr.RowPtr = append(mr.RowPtr, int64(len(mr.ColIdx)))
		}
	}
	d.Val, mr.Val = dl.a.Val[:len(d.ColIdx)], dl.a.Val[:len(mr.ColIdx)]
	dr.Rows, dr.Cols, dr.ColIdx, dr.Val = nr, d.Cols, d.ColIdx, d.Val
	mr.Rows, mr.Cols = nr, s.Cols
	if len(dl.rows) == 0 {
		return 0, 0
	}
	return 2 * (int64(mr.Rows) + mr.NNZ() + d.NNZ()), probesOf(mr, dr, s, cfg) + probesOf(mr, dr, d, cfg)
}

// update turns the support s of the kept graph A′ = s's pattern, as the
// last round left it and plan read it, into A′'s own support in place,
// and reports whether an edge's support fell below need. With
// Y = MR ⊙ (DR × A′) and X = MR ⊙ (DR × D) + Y = MR ⊙ (DR × A), it
// subtracts X(i, j) and, as A′·D = (D·A′)ᵀ on a symmetric pattern,
// Y(j, i) from s(i, j).
func (dl *delta) update(sr semiring.PlusPair[float64], s *sparse.CSR[float64], need float64, cfg core.Config) (drops bool, err error) {
	if len(dl.rows) == 0 {
		return false, nil
	}
	sub := func(i int, j sparse.Index, v float64) {
		p, _ := slices.BinarySearch(s.RowCols(i), j)
		p += int(s.RowPtr[i])
		s.Val[p] -= v
		drops = drops || s.Val[p] < need
	}
	for _, b := range [2]*sparse.CSR[float64]{&dl.d, s} {
		if dl.c, err = core.MaskedSpGEMMInto[float64](sr, dl.c, &dl.mr, &dl.dr, b, cfg); err != nil {
			return false, err
		}
		for r, i := range dl.rows {
			cols, vals := dl.c.Row(r)
			for q, j := range cols {
				sub(i, j, vals[q])
				if b == s {
					sub(int(j), sparse.Index(i), vals[q])
				}
			}
		}
	}
	return drops, nil
}

// supportSelectors[k] is atLeast(k-2) for 3 <= k < 64, built once so a
// call allocates no selector.
var supportSelectors = func() (s [64]func(float64) (float64, bool)) {
	for k := 3; k < len(s); k++ {
		s[k] = atLeast(float64(k - 2))
	}
	return s
}()

// atLeast is a full round's selector: keep an edge in at least need
// triangles, with its support.
func atLeast(need float64) func(float64) (float64, bool) {
	return func(v float64) (float64, bool) { return v, v >= need }
}

// fit copies c's column and value arrays into right-sized ones when
// they hold more than twice c's entries, so a small truss does not keep
// an early round's storage reachable.
func fit(c *sparse.CSR[float64]) *sparse.CSR[float64] {
	n := c.NNZ()
	if int64(cap(c.ColIdx)) > 2*n || int64(cap(c.Val)) > 2*n {
		c.ColIdx = append(make([]sparse.Index, 0, n), c.ColIdx[:n]...)
		c.Val = append(make([]float64, 0, n), c.Val[:n]...)
	}
	return c
}

// RoundKind is the rule a round hook forces on the rounds after the first.
type RoundKind uint8

const (
	AutoRounds  RoundKind = iota // the production rule
	FullRounds                   // a full product every round
	DeltaRounds                  // a delta round whenever the pattern is symmetric
)

// RoundStat is one k-truss round as a round hook sees it: its number,
// its kind, its price as the rule counted it (a full round's probes are
// 0 where the rule did not count them, always in round 1), and its kept
// edges carrying their support, the call's storage, valid during Observe.
type RoundStat struct {
	Round          int
	Delta          bool
	Visits, Probes int64
	Support        *sparse.CSR[float64]
}

// RoundHook forces a rule on k-truss rounds and observes each round
// once the next one is priced: the time between two observations is one
// round and the pricing of its successor.
type RoundHook struct {
	Force   RoundKind
	Observe func(RoundStat)
}

// roundHook is nil in production; only SetRoundHookForTest sets it.
var roundHook *RoundHook

// SetRoundHookForTest installs h (nil removes it) for every k-truss call
// until the returned function restores the previous hook; it must not
// change while a call runs.
func SetRoundHookForTest(h *RoundHook) (restore func()) {
	old := roundHook
	roundHook = h
	return func() { roundHook = old }
}

func (h *RoundHook) forced() RoundKind {
	if h == nil {
		return AutoRounds
	}
	return h.Force
}
