package core

import (
	"math/rand"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// prepared is a repeated product the way the facade's Multiplier holds
// one: Prepare on cfg's engine (a fresh one when cfg carries none), then
// the returned closure runs MaskedSpGEMM against that engine.
func prepared(
	m, a, b *sparse.CSR[float64], cfg Config,
) (run func() (*sparse.CSR[float64], error), tiles int, err error) {
	if cfg.Engine == nil {
		cfg.Engine = exec.New(exec.Config{})
	}
	tiles, err = Prepare(m, a, b, cfg)
	return func() (*sparse.CSR[float64], error) {
		return MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, m, a, b, cfg)
	}, tiles, err
}

func TestPreparedMatchesOneShot(t *testing.T) {
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
			multiply, _, err := prepared(a, a, a, cfg)
			if err != nil {
				t.Fatal(err)
			}
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
			// Prepare paid for the plan; every run found it cached.
			if st := cfg.Engine.Stats(); st.PlanMisses != 1 || st.PlanHits != 4 {
				t.Errorf("%v/%v: plan cache %d misses / %d hits, want 1 / 4", it, ak, st.PlanMisses, st.PlanHits)
			}
		}
	}
}

func TestPrepareErrorsAndEdges(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	a := randMatrix(5, 6, 0.5, r)
	b := randMatrix(7, 5, 0.5, r)
	m := randMatrix(5, 5, 0.5, r)
	if _, err := Prepare(m, a, b, DefaultConfig()); err == nil {
		t.Error("shape mismatch accepted")
	}
	bad := DefaultConfig()
	bad.Tiles = 0
	sq := randMatrix(5, 5, 0.5, r)
	if _, err := Prepare(sq, sq, sq, bad); err == nil {
		t.Error("invalid config accepted")
	}
	z := sparse.NewCSR[float64](0, 0, 0)
	multiply, tiles, err := prepared(z, z, z, DefaultConfig())
	if err != nil || tiles != 0 {
		t.Fatalf("zero-row prepare: %d tiles, err=%v", tiles, err)
	}
	if got, err := multiply(); err != nil || got.Rows != 0 || got.NNZ() != 0 {
		t.Errorf("zero-row multiply wrong (err=%v)", err)
	}
}

func TestPrepareTiles(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	a := randMatrix(100, 100, 0.1, r)
	cfg := DefaultConfig()
	cfg.Tiles = 16
	tiles, err := Prepare(a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tiles < 1 || tiles > 16 {
		t.Errorf("plan has %d tiles, want 1..16", tiles)
	}
}

// BenchmarkPreparedReuse quantifies the plan and workspace reuse of an
// engine against the one-shot kernel on the same problem.
func BenchmarkPreparedReuse(b *testing.B) {
	r := rand.New(rand.NewSource(104))
	a := randMatrix(400, 400, 0.03, r)
	cfg := DefaultConfig()
	b.Run("OneShot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Prepared", func(b *testing.B) {
		multiply, _, err := prepared(a, a, a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := multiply(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
