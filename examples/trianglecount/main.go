// Triangle counting at benchmark scale: generates an R-MAT social
// network (the com-Orkut-style workload of the paper), counts triangles
// with L ⊙ (L×L) one-shot, on one worker and cold and warm on an
// engine, prints the timings, and checks the count against the paper's
// kernel A ⊙ (A×A), which counts each triangle six times. Every count
// runs the paper's recommended configuration; the study's κ and tile
// sweeps are spgemm-bench's (docs/TUNING.md).
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
	eng := spgemm.NewEngine(spgemm.EngineConfig{})
	variants := []variant{
		{"one-shot, GOMAXPROCS workers", spgemm.Options{}},
		{"one-shot, 1 worker", spgemm.Options{Workers: 1}},
		{"engine, cold (plans and pools)", spgemm.Options{Engine: eng}},
		{"engine, warm (reuses both)", spgemm.Options{Engine: eng}},
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
			log.Fatalf("%s: count %d != %d — every run must agree", v.name, n, want)
		}
		fmt.Printf("%-48s %10s   (%d triangles)\n", v.name, elapsed.Round(time.Microsecond), n)
	}

	// The paper's kernel C = A ⊙ (A×A) counts each triangle six times.
	o := spgemm.Defaults()
	o.Semiring = spgemm.SRPlusPair
	c, err := spgemm.MxM(a, a, a, o)
	if err != nil {
		log.Fatal(err)
	}
	if sum := int64(c.Sum()); sum != 6*want {
		log.Fatalf("A ⊙ (A×A) disagrees: %d/6 != %d", sum, want)
	}
	fmt.Printf("A⊙(A×A) agrees: %d/6 = %d triangles\n", int64(c.Sum()), want)
}
