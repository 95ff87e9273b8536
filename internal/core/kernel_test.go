package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// randMatrix generates an n×m random integer-valued matrix; integer
// values keep the PlusTimes comparisons exact.
func randMatrix(rows, cols int, density float64, r *rand.Rand) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](rows, cols, 0)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				coo.Add(sparse.Index(i), sparse.Index(j), float64(r.Intn(5)+1))
			}
		}
	}
	return coo.ToCSR()
}

// allConfigs enumerates a representative configuration grid: every
// iteration space and accumulator kind, both tilings and schedules, and
// all marker widths on at least one path.
func allConfigs() []Config {
	var out []Config
	for _, it := range []IterationSpace{Vanilla, MaskLoad, CoIter, Hybrid} {
		for _, ak := range []accum.Kind{accum.AutoKind, accum.DenseKind, accum.HashKind, accum.DenseExplicitKind, accum.HashExplicitKind} {
			out = append(out, Config{
				Iteration: it, Kappa: 1, Accumulator: ak, MarkerBits: 32,
				Tiles: 4, Tiling: tiling.FlopBalanced, Schedule: sched.Dynamic, Workers: 2,
			})
		}
	}
	for _, bits := range []int{8, 16, 64} {
		out = append(out, Config{
			Iteration: MaskLoad, Kappa: 1, Accumulator: accum.DenseKind, MarkerBits: bits,
			Tiles: 3, Tiling: tiling.Uniform, Schedule: sched.Static, Workers: 2,
		})
		out = append(out, Config{
			Iteration: Hybrid, Kappa: 1, Accumulator: accum.HashKind, MarkerBits: bits,
			Tiles: 7, Tiling: tiling.FlopBalanced, Schedule: sched.Static, Workers: 3,
		})
	}
	for _, kappa := range []float64{0.001, 0.5, 1000} {
		out = append(out, Config{
			Iteration: Hybrid, Kappa: kappa, Accumulator: accum.HashKind, MarkerBits: 32,
			Tiles: 5, Tiling: tiling.Uniform, Schedule: sched.Dynamic, Workers: 2,
		})
	}
	out = append(out, Config{
		Iteration: Hybrid, Kappa: 1, Accumulator: accum.HashKind, MarkerBits: 32,
		Tiles: 9, Tiling: tiling.FlopBalanced, Schedule: sched.Guided, Workers: 3,
	})
	for _, w := range []int{1, 2, 4} {
		out = append(out, Config{
			Iteration: MaskLoad, Kappa: 1, Accumulator: accum.HashKind, MarkerBits: 32,
			Tiles: 6, Tiling: tiling.FlopBalanced, Schedule: sched.Guided, Workers: w,
		})
	}
	return out
}

// checkAgainstOracle verifies one masked product against the dense oracle.
func checkAgainstOracle(t *testing.T, m, a, b *sparse.CSR[float64], cfg Config) {
	t.Helper()
	got, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	if err := got.Check(); err != nil {
		t.Fatalf("%v: result malformed: %v", cfg, err)
	}
	want := sparse.MaskedMatMulDense(sparse.DensePattern(m), sparse.ToDense(a), sparse.ToDense(b))
	// Every stored output entry must be in the mask and have the oracle
	// value; every nonzero oracle value must be stored.
	gotDense := sparse.ToDense(got)
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if gotDense.At(i, j) != want.At(i, j) {
				t.Fatalf("%v: C[%d,%d] = %v, want %v", cfg, i, j, gotDense.At(i, j), want.At(i, j))
			}
		}
	}
	for i := 0; i < got.Rows; i++ {
		for _, j := range got.RowCols(i) {
			if !m.Has(i, j) {
				t.Fatalf("%v: output entry (%d,%d) outside the mask", cfg, i, j)
			}
		}
	}
}

func TestMaskedSpGEMMAllConfigsVsOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := randMatrix(40, 40, 0.15, r)
	a := randMatrix(40, 40, 0.12, r)
	b := randMatrix(40, 40, 0.12, r)
	for _, cfg := range allConfigs() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			checkAgainstOracle(t, m, a, b, cfg)
		})
	}
}

func TestMaskedSpGEMMRectangular(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randMatrix(15, 30, 0.2, r)
	b := randMatrix(30, 22, 0.2, r)
	m := randMatrix(15, 22, 0.3, r)
	for _, it := range []IterationSpace{Vanilla, MaskLoad, CoIter, Hybrid} {
		cfg := DefaultConfig()
		cfg.Iteration = it
		cfg.Tiles = 4
		cfg.Workers = 2
		checkAgainstOracle(t, m, a, b, cfg)
	}
}

func TestMaskedSpGEMMPropertyRandomShapes(t *testing.T) {
	f := func(seed int64, itRaw, akRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		rows, inner, cols := r.Intn(25)+1, r.Intn(25)+1, r.Intn(25)+1
		a := randMatrix(rows, inner, 0.25, r)
		b := randMatrix(inner, cols, 0.25, r)
		m := randMatrix(rows, cols, 0.3, r)
		cfg := Config{
			Iteration:   IterationSpace(itRaw % 4),
			Kappa:       1,
			Accumulator: accum.Kind(akRaw % 5),
			MarkerBits:  32,
			Tiles:       r.Intn(8) + 1,
			Tiling:      tiling.Strategy(r.Intn(2)),
			Schedule:    sched.Policy(r.Intn(3)),
			Workers:     r.Intn(3) + 1,
		}
		got, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg)
		if err != nil {
			return false
		}
		if got.Check() != nil {
			return false
		}
		want := sparse.MaskedMatMulDense(sparse.DensePattern(m), sparse.ToDense(a), sparse.ToDense(b))
		gd := sparse.ToDense(got)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if gd.At(i, j) != want.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestAllIterationSpacesAgree(t *testing.T) {
	// The four iteration spaces are different traversals of the same
	// computation; on identical input they must produce bit-identical
	// CSR results (same structure, same values, same order).
	r := rand.New(rand.NewSource(23))
	a := randMatrix(60, 60, 0.1, r)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Tiles = 8
	ref, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []IterationSpace{Vanilla, MaskLoad, CoIter} {
		c := cfg
		c.Iteration = it
		got, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, c)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(ref, got) {
			t.Errorf("%v disagrees with Hybrid", it)
		}
	}
}

func TestMaskedSpGEMMMatchesTwoStep(t *testing.T) {
	// Fused masked kernels must equal SpGEMM followed by ApplyMask.
	r := rand.New(rand.NewSource(31))
	a := randMatrix(50, 50, 0.12, r)
	full, err := SpGEMM[float64](semiring.PlusTimes[float64]{}, a, a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ApplyMask(a, full)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = 2
	got, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(want, got) {
		t.Error("fused masked SpGEMM differs from two-step oracle")
	}
}

func TestMaskedSpGEMMMatchesTwoStepRandomShapes(t *testing.T) {
	// On rectangular operands and any tile count, the masked product must
	// equal ApplyMask(M, SpGEMM(A, B)) bit for bit.
	sr := semiring.PlusTimes[float64]{}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, inner, cols := r.Intn(25)+1, r.Intn(25)+1, r.Intn(25)+1
		a := randMatrix(rows, inner, 0.25, r)
		b := randMatrix(inner, cols, 0.25, r)
		m := randMatrix(rows, cols, 0.3, r)
		cfg := DefaultConfig()
		cfg.Tiles = r.Intn(rows+5) + 1
		cfg.Workers = 2
		got, err := MaskedSpGEMM[float64](sr, m, a, b, cfg)
		if err != nil || got.Check() != nil {
			return false
		}
		full, err := SpGEMM[float64](sr, a, b)
		if err != nil {
			return false
		}
		want, err := ApplyMask(m, full)
		if err != nil {
			return false
		}
		return sparse.Equal(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMaskedSpGEMMSymmetricOperands(t *testing.T) {
	// On a symmetric A, C = A ⊙ (A×A) is symmetric: C[i,j] and C[j,i] sum
	// the same products in the same order of k.
	r := rand.New(rand.NewSource(91))
	a := sparse.Symmetrize(randMatrix(40, 40, 0.1, r))
	cfg := DefaultConfig()
	cfg.Tiles = 6
	cfg.Workers = 2
	got, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() == 0 {
		t.Fatal("empty product: the test exercises nothing")
	}
	if !sparse.Equal(got, sparse.Transpose(got)) {
		t.Error("A ⊙ (A×A) is not symmetric on symmetric A")
	}
}

func TestMaskedSpGEMMTileCountsVsOracle(t *testing.T) {
	// From one tile to more tiles than rows (35), every tile count must
	// give the oracle's product.
	r := rand.New(rand.NewSource(71))
	m := randMatrix(35, 35, 0.2, r)
	a := randMatrix(35, 35, 0.15, r)
	b := randMatrix(35, 35, 0.15, r)
	for _, tiles := range []int{1, 2, 4, 16, 35, 100} {
		cfg := DefaultConfig()
		cfg.Tiles = tiles
		cfg.Workers = 2
		t.Run(fmt.Sprintf("tiles=%d", tiles), func(t *testing.T) {
			checkAgainstOracle(t, m, a, b, cfg)
		})
	}
}

func TestMaskedSpGEMMSemirings(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	a := randMatrix(30, 30, 0.15, r)
	cfg := DefaultConfig()
	cfg.Workers = 2

	// PlusPair counts structural matches: C[i,j] = |{k: A[i,k],B[k,j]≠0}|.
	got, err := MaskedSpGEMM[float64](semiring.PlusPair[float64]{}, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pat := a.Pattern()
	want, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, pat, pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(got, want) {
		t.Error("PlusPair != PlusTimes on pattern operands")
	}

	// OrAnd yields the masked Boolean product: all stored values 1.
	gotBool, err := MaskedSpGEMM[float64](semiring.OrAnd[float64]{}, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.EqualPattern(gotBool, want) {
		t.Error("OrAnd pattern differs from PlusPair pattern")
	}
	for _, v := range gotBool.Val {
		if v != 1 {
			t.Fatalf("OrAnd stored %v, want 1", v)
		}
	}
}

func TestMaskedSpGEMMIntValues(t *testing.T) {
	// The kernel is generic over the value type; run the oracle check
	// with int64 to pin that down.
	r := rand.New(rand.NewSource(53))
	coo := sparse.NewCOO[int64](20, 20, 0)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if r.Float64() < 0.2 {
				coo.Add(sparse.Index(i), sparse.Index(j), int64(r.Intn(7)+1))
			}
		}
	}
	a := coo.ToCSR()
	cfg := DefaultConfig()
	cfg.Workers = 2
	got, err := MaskedSpGEMM[int64](semiring.PlusTimes[int64]{}, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := sparse.MaskedMatMulDense(sparse.DensePattern(a), sparse.ToDense(a), sparse.ToDense(a))
	gd := sparse.ToDense(got)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if gd.At(i, j) != want.At(i, j) {
				t.Fatalf("int64 C[%d,%d] = %v, want %v", i, j, gd.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMaskedSpGEMMEdgeCases(t *testing.T) {
	cfg := DefaultConfig()
	sr := semiring.PlusTimes[float64]{}

	t.Run("empty mask", func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		a := randMatrix(10, 10, 0.3, r)
		empty := sparse.NewCOO[float64](10, 10, 0).ToCSR()
		got, err := MaskedSpGEMM[float64](sr, empty, a, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ() != 0 {
			t.Errorf("empty mask produced %d entries", got.NNZ())
		}
	})

	t.Run("empty operands", func(t *testing.T) {
		empty := sparse.NewCOO[float64](8, 8, 0).ToCSR()
		m := sparse.FromDense(&sparse.Dense[float64]{Rows: 8, Cols: 8, Data: make([]float64, 64)})
		_ = m
		got, err := MaskedSpGEMM[float64](sr, empty, empty, empty, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ() != 0 {
			t.Error("empty operands produced entries")
		}
	})

	t.Run("zero rows", func(t *testing.T) {
		z := sparse.NewCSR[float64](0, 0, 0)
		got, err := MaskedSpGEMM[float64](sr, z, z, z, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != 0 || got.NNZ() != 0 {
			t.Error("zero-row product wrong")
		}
	})

	t.Run("shape mismatch", func(t *testing.T) {
		r := rand.New(rand.NewSource(2))
		a := randMatrix(5, 6, 0.5, r)
		b := randMatrix(7, 5, 0.5, r) // inner dimensions disagree
		m := randMatrix(5, 5, 0.5, r)
		if _, err := MaskedSpGEMM[float64](sr, m, a, b, cfg); err == nil {
			t.Error("inner dimension mismatch not rejected")
		}
	})

	t.Run("invalid config", func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		a := randMatrix(5, 5, 0.5, r)
		bad := cfg
		bad.MarkerBits = 7
		if _, err := MaskedSpGEMM[float64](sr, a, a, a, bad); err == nil {
			t.Error("invalid marker bits not rejected")
		}
		bad = cfg
		bad.Tiles = 0
		if _, err := MaskedSpGEMM[float64](sr, a, a, a, bad); err == nil {
			t.Error("zero tiles not rejected")
		}
		bad = cfg
		bad.Iteration = Hybrid
		bad.Kappa = 0
		if _, err := MaskedSpGEMM[float64](sr, a, a, a, bad); err == nil {
			t.Error("hybrid with kappa=0 not rejected")
		}
		bad = cfg
		bad.Schedule = sched.Policy(99)
		if _, err := MaskedSpGEMM[float64](sr, a, a, a, bad); err == nil {
			t.Error("unknown schedule not rejected")
		}
		bad = cfg
		bad.Workers = -1
		if _, err := MaskedSpGEMM[float64](sr, a, a, a, bad); err == nil {
			t.Error("negative workers not rejected")
		}
	})

	t.Run("more tiles than rows", func(t *testing.T) {
		r := rand.New(rand.NewSource(4))
		a := randMatrix(6, 6, 0.4, r)
		c := cfg
		c.Tiles = 1000
		checkAgainstOracle(t, a, a, a, c)
	})
}

func TestConfigValidateAndString(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	s := DefaultConfig().String()
	if s == "" {
		t.Error("empty config string")
	}
	for _, it := range []IterationSpace{Vanilla, MaskLoad, CoIter, Hybrid} {
		if it.String() == "Unknown" {
			t.Errorf("iteration %d has no name", it)
		}
	}
}

func TestCoIterCheaperModel(t *testing.T) {
	// Eq. 3 sanity: tiny mask against a huge row favors co-iteration;
	// a mask as big as the row does not.
	if !coIterCheaper(2, 1<<20, 1) {
		t.Error("2-element mask vs 1M row should co-iterate")
	}
	if coIterCheaper(1000, 1000, 1) {
		t.Error("equal sizes should not co-iterate at kappa=1")
	}
	// Kappa scales the linear cost: enormous kappa forces co-iteration.
	if !coIterCheaper(1000, 1000, 1e6) {
		t.Error("huge kappa must force co-iteration")
	}
	if coIterCheaper(2, 1<<20, 1e-7) {
		t.Error("tiny kappa must suppress co-iteration")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSpGEMMOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, inner, cols := r.Intn(20)+1, r.Intn(20)+1, r.Intn(20)+1
		a := randMatrix(rows, inner, 0.25, r)
		b := randMatrix(inner, cols, 0.25, r)
		got, err := SpGEMM[float64](semiring.PlusTimes[float64]{}, a, b)
		if err != nil || got.Check() != nil {
			return false
		}
		want := sparse.MatMulDense(sparse.ToDense(a), sparse.ToDense(b))
		gd := sparse.ToDense(got)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if gd.At(i, j) != want.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestApplyMaskShapeError(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randMatrix(5, 5, 0.5, r)
	b := randMatrix(6, 6, 0.5, r)
	if _, err := ApplyMask(a, b); err == nil {
		t.Error("shape mismatch not rejected")
	}
	if _, err := SpGEMM[float64](semiring.PlusTimes[float64]{}, a, b); err == nil {
		t.Error("SpGEMM shape mismatch not rejected")
	}
}

func TestKernelDeterminism(t *testing.T) {
	// Parallel execution must be bit-deterministic: per-row work is
	// sequential and rows are disjoint, so repeated runs agree exactly.
	r := rand.New(rand.NewSource(61))
	a := randMatrix(80, 80, 0.08, r)
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Tiles = 16
	var prev *sparse.CSR[float64]
	for rep := 0; rep < 5; rep++ {
		got, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !sparse.Equal(prev, got) {
			t.Fatal("nondeterministic result across runs")
		}
		prev = got
	}
}

func ExampleMaskedSpGEMM() {
	// C = M ⊙ (A × A) on a 4-cycle: counts length-2 paths between
	// adjacent vertices (none in a square — no triangles).
	coo := sparse.NewCOO[float64](4, 4, 8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		coo.Add(sparse.Index(e[0]), sparse.Index(e[1]), 1)
		coo.Add(sparse.Index(e[1]), sparse.Index(e[0]), 1)
	}
	a := coo.ToCSR()
	c, _ := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, DefaultConfig())
	fmt.Println("nnz:", c.NNZ())
	// Output: nnz: 0
}
