package core

import (
	"fmt"
	"math/rand"
	"testing"

	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// TestConfigExtremesAgreeWithOracle holds the masked product of
// rectangular operands to its definition with κ and the tile count at
// their extremes: κ small enough that no row co-iterates and large
// enough that every row does, one tile, and more tiles than rows. It
// runs each under the three semirings the public facade exposes. The
// knobs may change how the product is computed, never what it is.
func TestConfigExtremesAgreeWithOracle(t *testing.T) {
	const rows, inner, cols = 37, 23, 41
	r := rand.New(rand.NewSource(37))
	a := randMatrix(rows, inner, 0.2, r)
	b := randMatrix(inner, cols, 0.2, r)
	m := randMatrix(rows, cols, 0.3, r)
	extremes := []struct {
		name string
		set  func(*Config)
	}{
		{"kappa-tiny", func(c *Config) { c.Kappa = 1e-9 }},
		{"kappa-huge", func(c *Config) { c.Kappa = 1e9 }},
		{"one-tile", func(c *Config) { c.Tiles = 1 }},
		{"tiles-over-rows", func(c *Config) { c.Tiles = 10 * rows }},
	}
	// Each semiring's value for a mask position with matches ≥ 1
	// products summing to sum; values are positive, so no match sums
	// to zero and every position without a match stays absent.
	semirings := []struct {
		name  string
		run   func(Config) (*sparse.CSR[float64], error)
		value func(matches int, sum float64) float64
	}{
		{"plus-times",
			func(c Config) (*sparse.CSR[float64], error) {
				return MaskedSpGEMM(semiring.PlusTimes[float64]{}, m, a, b, c)
			},
			func(_ int, sum float64) float64 { return sum }},
		{"plus-pair",
			func(c Config) (*sparse.CSR[float64], error) {
				return MaskedSpGEMM(semiring.PlusPair[float64]{}, m, a, b, c)
			},
			func(matches int, _ float64) float64 { return float64(matches) }},
		{"or-and",
			func(c Config) (*sparse.CSR[float64], error) {
				return MaskedSpGEMM(semiring.OrAnd[float64]{}, m, a, b, c)
			},
			func(int, float64) float64 { return 1 }},
	}
	ad, bd := sparse.ToDense(a), sparse.ToDense(b)
	for _, sr := range semirings {
		want := sparse.NewDense[float64](rows, cols)
		for i := range rows {
			for _, j := range m.RowCols(i) {
				matches, sum := 0, 0.0
				for k := range inner {
					if ad.At(i, k) != 0 && bd.At(k, int(j)) != 0 {
						matches++
						sum += ad.At(i, k) * bd.At(k, int(j))
					}
				}
				if matches > 0 {
					want.Set(i, int(j), sr.value(matches, sum))
				}
			}
		}
		t.Run(sr.name, func(t *testing.T) {
			for _, x := range extremes {
				t.Run(x.name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Workers = 2
					x.set(&cfg)
					got, err := sr.run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := got.Check(); err != nil {
						t.Fatalf("result malformed: %v", err)
					}
					gd := sparse.ToDense(got)
					for i := range rows {
						for j := range cols {
							if gd.At(i, j) != want.At(i, j) {
								t.Fatalf("C[%d,%d] = %v, want %v", i, j, gd.At(i, j), want.At(i, j))
							}
						}
					}
				})
			}
		})
	}
}

// TestKappaSteersHybridPicks pins that Config.Kappa is the κ the kernel
// decides by: raising it moves Eq. 3 decisions from linear scans to
// co-iteration, never the other way, and never changes the product.
func TestKappaSteersHybridPicks(t *testing.T) {
	a := graphgen.RMAT(8, 8, 0.57, 0.19, 0.19, 7)
	kappas := []float64{1e-9, 1, 1e9}
	co := make([]int64, len(kappas))
	lin := make([]int64, len(kappas))
	var ref *sparse.CSR[float64]
	for i, k := range kappas {
		t.Run(fmt.Sprintf("kappa=%g", k), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 2
			cfg.Kappa = k
			cfg.Recorder = obs.NewRecorder()
			c, err := MaskedSpGEMM(semiring.PlusTimes[float64]{}, a, a, a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = c
			} else if !sparse.Equal(c, ref) {
				t.Fatalf("κ=%g changed the result", k)
			}
			tot := cfg.Recorder.Stats().Totals
			co[i], lin[i] = tot.CoIterPicks, tot.LinearPicks
		})
	}
	for i := 1; i < len(kappas); i++ {
		if co[i] < co[i-1] || lin[i] > lin[i-1] || co[i]+lin[i] != co[0]+lin[0] {
			t.Fatalf("picks co=%v linear=%v over κ=%v: want co-iteration rising, linear falling, same total", co, lin, kappas)
		}
	}
	if co[len(co)-1] == co[0] {
		t.Fatalf("κ from %g to %g moved no decision (co=%v)", kappas[0], kappas[len(kappas)-1], co)
	}
}
