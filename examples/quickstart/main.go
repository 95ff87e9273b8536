// Quickstart: build a small graph, run the masked SpGEMM kernel
// C = A ⊙ (A×A), and count its triangles — the minimal end-to-end tour
// of the public API.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"maskedspgemm/spgemm"
)

func main() {
	// The "bowtie": two triangles sharing vertex 2.
	//
	//	0---1        3---4
	//	 \  |        |  /
	//	  \ |        | /
	//	    2--------2
	a, err := spgemm.FromEdges(5, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{2, 3}, {3, 4}, {4, 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", a.Rows(), a.NNZ()/2)

	// C = A ⊙ (A×A): for every edge (i,j), the number of common
	// neighbors of i and j — i.e. triangles through that edge.
	opts := spgemm.Defaults()
	opts.Semiring = spgemm.SRPlusPair // count matches, ignore values
	c, err := spgemm.MxM(a, a, a, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("support matrix nnz: %d, total wedge closures: %.0f\n", c.NNZ(), c.Sum())

	// Each triangle is counted 6 times in C's sum (3 edges × 2
	// orientations). TriangleCount counts each once: it multiplies only
	// the lower triangle L, L ⊙ (L×L), a fraction of the work.
	tri, err := spgemm.TriangleCount(a, spgemm.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	if float64(6*tri) != c.Sum() {
		log.Fatalf("L ⊙ (L×L) counts %d triangles, A ⊙ (A×A) %.0f/6", tri, c.Sum())
	}
	fmt.Printf("triangles: %d (= %.0f/6)\n", tri, c.Sum())

	// Production hardening (docs/ERRORS.md): a context makes the multiply
	// cancellable, and ValidateInputs vets untrusted operands up front —
	// every failure mode comes back as a typed error, never a panic.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	hard := spgemm.Defaults()
	hard.Context = ctx
	hard.ValidateInputs = true
	if _, err := spgemm.MxM(a, a, a, hard); err != nil {
		switch {
		case errors.Is(err, spgemm.ErrCanceled):
			log.Fatal("timed out:", err)
		case errors.Is(err, spgemm.ErrInvalidMatrix):
			log.Fatal("bad operand:", err)
		default:
			log.Fatal(err)
		}
	}
	fmt.Println("validated, cancellable multiply: ok")
}
