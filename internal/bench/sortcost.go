package bench

import (
	"fmt"
	"io"
	"time"

	"maskedspgemm/internal/sparse"
)

// SortCost quantifies the footnote of the paper's §III-B: co-iteration
// requires B's rows to be sorted by column, "which may not be the case
// in SuiteSparse:GraphBLAS". For every corpus graph it measures the
// one-time cost of sorting shuffled rows against the per-multiply
// saving the hybrid space buys, i.e. how many masked products amortize
// the sort.
func SortCost(w io.Writer, o Options) error {
	fmt.Fprintln(w, "Sorted-B ablation: row-sort cost vs hybrid-iteration saving per multiply")
	fmt.Fprintf(w, "%-22s %12s %12s %12s %14s\n",
		"Graph", "sort-ms", "maskload-ms", "hybrid-ms", "breakeven-mults")
	for _, g := range o.corpus() {
		a := g.Build(o.Shift)

		shuffled := shuffleRows(a, 0xBADC0DE)
		start := time.Now()
		shuffled.SortRows()
		sortMs := float64(time.Since(start)) / float64(time.Millisecond)
		if err := shuffled.Check(); err != nil {
			return fmt.Errorf("%s: sort produced malformed matrix: %w", g.Name, err)
		}

		lin, hyb, err := o.timeLoadVsHybrid("sortcost", g.Name, a)
		if err != nil {
			return err
		}

		saving := lin.Millis - hyb.Millis
		breakeven := "never"
		if saving > 0 {
			breakeven = fmt.Sprintf("%.1f", sortMs/saving)
		}
		fmt.Fprintf(w, "%-22s %12.2f %12.2f %12.2f %14s\n",
			g.Name, sortMs, lin.Millis, hyb.Millis, breakeven)
	}
	return nil
}

// shuffleRows returns a copy of m with each row's entries in a
// deterministic pseudo-random order — the unsorted state a library
// without the sortedness invariant would hold.
func shuffleRows(m *sparse.CSR[float64], seed uint64) *sparse.CSR[float64] {
	c := m.Clone()
	state := seed
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := 0; i < c.Rows; i++ {
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		cols := c.ColIdx[lo:hi]
		vals := c.Val[lo:hi]
		for p := len(cols) - 1; p > 0; p-- {
			q := int(next() % uint64(p+1))
			cols[p], cols[q] = cols[q], cols[p]
			vals[p], vals[q] = vals[q], vals[p]
		}
	}
	return c
}
