package core

import (
	"math/rand"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// repeated is a product run again and again on cfg's engine (a fresh
// one when cfg carries none): the returned closure runs MaskedSpGEMM
// against that engine, so its first run plans and every later one finds
// the plan cached.
func repeated(m, a, b *sparse.CSR[float64], cfg Config) func() (*sparse.CSR[float64], error) {
	if cfg.Engine == nil {
		cfg.Engine = exec.New(exec.Config{})
	}
	return func() (*sparse.CSR[float64], error) {
		return MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg)
	}
}

// planTiles is the tile count of the plan a run of M ⊙ (A × B) under
// cfg resolves (1 below the tile crossover), built afresh.
func planTiles(t testing.TB, m, a, b *sparse.CSR[float64], cfg Config) int {
	t.Helper()
	cfg.Engine = nil
	plan, err := planFor(nil, cfg, sched.Workers(cfg.Workers), m, a, b, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return max(len(plan.Tiles), 1)
}

func TestRepeatedMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	a := randMatrix(60, 60, 0.12, r)
	for _, it := range []IterationSpace{Vanilla, MaskLoad, CoIter, Hybrid} {
		for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind} {
			cfg := DefaultConfig()
			cfg.Iteration = it
			cfg.Accumulator = ak
			cfg.Tiles = 7
			cfg.Workers = 2
			want, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine = exec.New(exec.Config{})
			multiply := repeated(a, a, a, cfg)
			// Repeated multiplies must stay bit-identical: buffer reuse
			// and marker state must not leak between runs.
			for rep := 0; rep < 4; rep++ {
				got, err := multiply()
				if err != nil {
					t.Fatalf("%v/%v rep %d: %v", it, ak, rep, err)
				}
				if err := got.Check(); err != nil {
					t.Fatalf("%v/%v rep %d: malformed: %v", it, ak, rep, err)
				}
				if !sparse.Equal(want, got) {
					t.Fatalf("%v/%v rep %d: differs from one-shot kernel", it, ak, rep)
				}
			}
			// The first run paid for the plan; every later run found it cached.
			if st := cfg.Engine.Stats(); st.PlanMisses != 1 || st.PlanHits != 3 {
				t.Errorf("%v/%v: plan cache %d misses / %d hits, want 1 / 3", it, ak, st.PlanMisses, st.PlanHits)
			}
		}
	}
}
