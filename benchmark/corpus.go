package main

import (
	"time"

	"maskedspgemm/internal/graphgen"
	"maskedspgemm/spgemm"
)

// graphSpec is one synthetic stand-in for a matrix of the paper's
// Table I. The parameter sets are copied from internal/bench.Corpus on
// purpose: the benchmark must keep measuring the same graphs when that
// package is reshaped, so it does not import it.
type graphSpec struct {
	name string
	// gen runs the generator. shift halves the vertex count per unit
	// (0 = benchmark scale, 4 = the test suite's "small" scale); seed is
	// XORed into the generator's own seed, so one -seed moves every
	// graph and the library only ever sees the generated matrices.
	gen func(shift int, seed uint64) generated
}

// generated is a generator's output seen through the three things the
// benchmark needs from it; naming the concrete CSR type would pull
// internal/sparse into the end-to-end path.
type generated struct {
	rows int
	src  interface {
		Row(i int) ([]int32, []float64)
		NNZ() int64
	}
}

func web(n, out int, copyProb float64, seed uint64) generated {
	g := graphgen.WebGraph(n, out, copyProb, seed)
	return generated{g.Rows, g}
}

func rmat(scale, edgeFactor int, a, b, c float64, seed uint64) generated {
	g := graphgen.RMAT(scale, edgeFactor, a, b, c, seed)
	return generated{g.Rows, g}
}

func road(width, height int, keep float64, seed uint64) generated {
	g := graphgen.RoadNetwork(width, height, keep, seed)
	return generated{g.Rows, g}
}

func circuit(n, band int, fill float64, rails, railDegree int, seed uint64) generated {
	g := graphgen.Circuit(n, band, fill, rails, railDegree, seed)
	return generated{g.Rows, g}
}

func shrink(n, shift int) int {
	n >>= shift
	if n < 16 {
		n = 16
	}
	return n
}

var corpus = []graphSpec{
	{"arabic-2005-sim", func(s int, seed uint64) generated {
		return web(shrink(40000, s), 14, 0.6, 0xA2AB1C^seed)
	}},
	{"as-Skitter-sim", func(s int, seed uint64) generated {
		return web(shrink(24000, s), 10, 0.45, 0x5517^seed)
	}},
	{"circuit5M-sim", func(s int, seed uint64) generated {
		n := shrink(30000, s)
		return circuit(n, 3, 0.6, 4, n/8, 0xC1AC^seed)
	}},
	{"com-LiveJournal-sim", func(s int, seed uint64) generated {
		return rmat(14-s, 9, 0.57, 0.19, 0.19, 0x117E^seed)
	}},
	{"com-Orkut-sim", func(s int, seed uint64) generated {
		return rmat(13-s, 20, 0.57, 0.19, 0.19, 0x0870^seed)
	}},
	{"europe_osm-sim", func(s int, seed uint64) generated {
		return road(shrink(320, s/2+s%2), shrink(250, s/2), 0.93, 0xE05^seed)
	}},
	{"GAP-road-sim", func(s int, seed uint64) generated {
		return road(shrink(230, s/2+s%2), shrink(200, s/2), 0.95, 0x6A9^seed)
	}},
	{"hollywood-2009-sim", func(s int, seed uint64) generated {
		return rmat(12-s, 36, 0.55, 0.2, 0.2, 0x0111^seed)
	}},
	{"stokes-sim", func(s int, seed uint64) generated {
		n := shrink(26000, s)
		return circuit(n, 9, 0.85, 2, n/60, 0x570E5^seed)
	}},
	{"uk-2002-sim", func(s int, seed uint64) generated {
		return web(shrink(32000, s), 13, 0.55, 0x2002^seed)
	}},
}

// bcRoad is the GAP-road-sim generator at the size batched BC runs on:
// a 57 × 100 lattice (n = 5 700), small enough that one BC batch is
// ~265 multiplies of a few hundred FLOPs each.
var bcRoad = graphSpec{"GAP-road-sim", func(s int, seed uint64) generated {
	return road(shrink(57, s/2), shrink(100, s/2), 0.95, 0x6A9^seed)
}}

func findGraph(name string) graphSpec {
	for _, g := range corpus {
		if g.name == name {
			return g
		}
	}
	panic("benchmark: unknown corpus graph " + name)
}

// prepTimes splits operand construction between the two layers that do
// it, for the graphgen.build_ms and sparse.prep_ms ledger entries.
type prepTimes struct {
	build, prep time.Duration
}

// buildGraph generates one graph and turns it into the undirected,
// unit-valued adjacency every workload starts from: generator output →
// FromTriples → Symmetrize → Pattern, all through the public facade.
func buildGraph(g graphSpec, shift int, seed uint64, pt *prepTimes) (*spgemm.Matrix, error) {
	t0 := time.Now()
	gd := g.gen(shift, seed)
	t1 := time.Now()
	pt.build += t1.Sub(t0)
	triples := make([]spgemm.Triple, 0, gd.src.NNZ())
	for i := 0; i < gd.rows; i++ {
		cols, vals := gd.src.Row(i)
		for k, j := range cols {
			triples = append(triples, spgemm.Triple{Row: i, Col: int(j), Val: vals[k]})
		}
	}
	m, err := spgemm.FromTriples(gd.rows, gd.rows, triples)
	if err != nil {
		return nil, err
	}
	m = m.Symmetrize().Pattern()
	pt.prep += time.Since(t1)
	return m, nil
}
