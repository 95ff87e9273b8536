package core

import (
	"errors"
	"math/rand"
	"testing"
	"unsafe"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// intoEntry is one of the two lent-storage entry points and the fresh
// entry point it must match.
type intoEntry struct {
	name  string
	run   func(dst, m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error)
	fresh func(m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error)
}

func intoEntries() []intoEntry {
	sr := semiring.PlusTimes[float64]{}
	sel := func(v float64) (float64, bool) { return v / 2, v > 3 }
	return []intoEntry{
		{"MaskedSpGEMMInto", func(dst, m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
			return MaskedSpGEMMInto[float64](sr, dst, m, a, b, cfg)
		}, func(m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
			return MaskedSpGEMM[float64](sr, m, a, b, cfg)
		}},
		{"MaskedSpGEMMSelectInto", func(dst, m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
			return MaskedSpGEMMSelectInto[float64](sr, dst, m, a, b, cfg, sel)
		}, func(m, a, b *sparse.CSR[float64], cfg Config) (*sparse.CSR[float64], error) {
			return MaskedSpGEMMSelect[float64](sr, m, a, b, cfg, sel)
		}},
	}
}

// junk returns a matrix of the given shape whose every array holds
// garbage, as lent storage last used by some other result.
func junk(rows, cols int, nnz int64) *sparse.CSR[float64] {
	d := &sparse.CSR[float64]{
		Rows: rows, Cols: cols,
		RowPtr: make([]int64, rows+1),
		ColIdx: make([]sparse.Index, nnz),
		Val:    make([]float64, nnz),
	}
	for i := range d.RowPtr {
		d.RowPtr[i] = int64(3 * i)
	}
	for q := range d.ColIdx {
		d.ColIdx[q], d.Val[q] = sparse.Index(q), -7
	}
	return d
}

// TestMaskedSpGEMMIntoMatchesFresh pins the lent-storage entry points
// to the fresh ones, bit for bit, under every configuration: with no
// dst, a larger dst (reused, not reallocated), a smaller one (grown),
// and a header that last held a different matrix of the same rows,
// cols and nnz, fed back as the operand on a shared engine so the plan
// key hits the other matrix's plan.
func TestMaskedSpGEMMIntoMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	a := randMatrix(60, 60, 0.08, r)
	for _, e := range intoEntries() {
		for ci, cfg := range allConfigs() {
			want, err := e.fresh(a, a, a, cfg)
			if err != nil {
				t.Fatalf("%s cfg %d: %v", e.name, ci, err)
			}
			check := func(what string, got, dst *sparse.CSR[float64]) {
				t.Helper()
				if dst != nil && got != dst {
					t.Fatalf("%s cfg %d %s: result is not the lent header", e.name, ci, what)
				}
				if !sparse.Equal(got, want) {
					t.Fatalf("%s cfg %d %s: result differs from the fresh call", e.name, ci, what)
				}
			}

			got, err := e.run(nil, a, a, a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check("nil dst", got, nil)

			large := junk(2*a.Rows, a.Cols, 2*want.NNZ()+8)
			colIdx := unsafe.SliceData(large.ColIdx)
			if got, err = e.run(large, a, a, a, cfg); err != nil {
				t.Fatal(err)
			}
			check("larger dst", got, large)
			if unsafe.SliceData(got.ColIdx) != colIdx {
				t.Fatalf("%s cfg %d: a large enough dst was reallocated", e.name, ci)
			}

			small := junk(1, 1, 1)
			if got, err = e.run(small, a, a, a, cfg); err != nil {
				t.Fatal(err)
			}
			check("smaller dst", got, small)

			checkStalePlan(t, e, ci, cfg, r)
		}
	}
}

// checkStalePlan feeds a header back as the next product's operand, the
// way k-truss rounds do, after refilling it with a different matrix of
// the same rows, cols and nnz: the shared engine's plan key hits the
// previous matrix's plan, and the result, assembled into lent storage,
// must still equal an engineless fresh call.
func checkStalePlan(t *testing.T, e intoEntry, ci int, cfg Config, r *rand.Rand) {
	t.Helper()
	p := randMatrix(50, 50, 0.1, r)
	q := sparse.Transpose(p) // same rows, cols and nnz; other rows
	if sparse.EqualPattern(p, q) {
		t.Fatal("fixture: transpose kept the pattern")
	}
	cfg.Engine = exec.New(exec.Config{})
	buf := p.Clone()
	dst, err := e.run(nil, buf, buf, buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Refill buf as an Into call would: same header, new content.
	copy(buf.RowPtr, q.RowPtr)
	copy(buf.ColIdx, q.ColIdx)
	copy(buf.Val, q.Val)
	prior := cfg.Engine.Stats()
	got, err := e.run(dst, buf, buf, buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := cfg.Engine.Stats().Sub(prior); d.PlanHits == 0 || d.PlanMisses != 0 {
		t.Fatalf("%s cfg %d: refilled header missed the plan cache (%+v)", e.name, ci, d)
	}
	cfg.Engine = nil
	want, err := e.fresh(q, q, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != dst || !sparse.Equal(got, want) {
		t.Fatalf("%s cfg %d: result on a stale plan differs from the fresh call", e.name, ci)
	}
}

// TestMaskedSpGEMMIntoRejectsSharedStorage pins the aliasing check: a
// dst that is an operand, or shares any array with one, is ErrConfig.
func TestMaskedSpGEMMIntoRejectsSharedStorage(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	m := randMatrix(20, 20, 0.2, r)
	a := randMatrix(20, 20, 0.2, r)
	b := randMatrix(20, 20, 0.2, r)
	for _, e := range intoEntries() {
		for _, op := range []*sparse.CSR[float64]{m, a, b} {
			inner := &sparse.CSR[float64]{Rows: op.Rows, Cols: op.Cols,
				RowPtr: make([]int64, op.Rows+1), ColIdx: op.ColIdx[1:2], Val: make([]float64, 1)}
			for _, dst := range []*sparse.CSR[float64]{
				op,
				{Rows: 1, Cols: 1, RowPtr: op.RowPtr},
				inner,
				{Rows: 1, Cols: 1, RowPtr: make([]int64, 2), Val: op.Val[len(op.Val)-1:]},
			} {
				if _, err := e.run(dst, m, a, b, DefaultConfig()); !errors.Is(err, ErrConfig) {
					t.Fatalf("%s: dst sharing an operand's storage gave %v, want ErrConfig", e.name, err)
				}
			}
		}
		if _, err := e.run(m.Clone(), m, a, b, DefaultConfig()); err != nil {
			t.Fatalf("%s: a disjoint copy was rejected: %v", e.name, err)
		}
	}
}
