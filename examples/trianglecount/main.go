// Triangle counting at benchmark scale: generates an R-MAT social
// network (the com-Orkut-style workload of the paper), counts triangles
// across the co-iteration factor κ and the tile count, and prints the
// timing spread — a miniature of the paper's Figure 1 on one graph.
package main

import (
	"fmt"
	"log"
	"time"

	"maskedspgemm/spgemm"
)

func main() {
	a := spgemm.RandomGraph("rmat", 1<<13, 2024)
	s := a.Stats()
	fmt.Printf("R-MAT social graph: n=%d nnz=%d max-degree=%d\n", s.Rows, s.NNZ, s.MaxRowNNZ)

	type variant struct {
		name string
		opts spgemm.Options
	}
	with := func(kappa float64, tiles int) spgemm.Options {
		o := spgemm.Defaults()
		o.Kappa, o.Tiles = kappa, tiles
		return o
	}
	variants := []variant{
		{"hybrid κ=1, 2048 tiles (paper's pick)", spgemm.Defaults()},
		{"κ=1e-9: never co-iterate (mask-load)", with(1e-9, 2048)},
		{"κ=1e9: always co-iterate", with(1e9, 2048)},
		{"hybrid κ=1, 64 tiles", with(1, 64)},
	}

	var want int64 = -1
	for _, v := range variants {
		start := time.Now()
		n, err := spgemm.TriangleCount(a, v.opts)
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		elapsed := time.Since(start)
		if want < 0 {
			want = n
		} else if n != want {
			log.Fatalf("%s: count %d != %d — kernel variants must agree", v.name, n, want)
		}
		fmt.Printf("%-48s %10s   (%d triangles)\n", v.name, elapsed.Round(time.Microsecond), n)
	}

	// The cheaper lower-triangular formulation computes the same count.
	ll, err := spgemm.TriangleCountLL(a, spgemm.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	if ll != want {
		log.Fatalf("L·L formulation disagrees: %d != %d", ll, want)
	}
	fmt.Printf("L⊙(L×L) formulation agrees: %d triangles\n", ll)
}
