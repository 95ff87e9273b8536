package spgemm_test

import (
	"math/rand"
	"testing"

	"maskedspgemm/spgemm"
)

// steadyAllocBudget is the allowed allocation count of one warm,
// stats-off MxM on an Engine: the freshly assembled result (CSR header, row
// pointers, column indices, values, public wrapper — the paper's
// measurement loop frees the output each run, so it is rebuilt by
// design) plus a handful of fixed scheduler closure cells. The budget
// is a constant, independent of matrix size: the row kernels,
// accumulators and gather run entirely in reused buffers (see
// internal/core's TestKernelSteadyStateAllocs for the exact-zero
// assertion on that loop), and the pooled workspace checkout costs
// none. Any growth past this bound means an allocation crept into a hot
// path.
const steadyAllocBudget = 12

// TestMultiplySteadyStateAllocs pins the warm repeat path — one product
// repeated with MxM on a shared Engine — to steadyAllocBudget, and
// requires the warm loop to be served from the pool.
func TestMultiplySteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var tr []spgemm.Triple
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if r.Float64() < 0.15 {
				tr = append(tr, spgemm.Triple{Row: i, Col: j, Val: 1})
			}
		}
	}
	a, err := spgemm.FromTriples(64, 64, tr)
	if err != nil {
		t.Fatal(err)
	}
	opts := spgemm.Defaults()
	opts.Workers = 1 // serial: no per-run goroutine spawns to count
	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	// The first run caches the plan and pools the workspace.
	if _, err := spgemm.MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := spgemm.MxM(a, a, a, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > steadyAllocBudget {
		t.Errorf("warm MxM allocates %.1f times per run, budget %d (result assembly + fixed overhead)",
			allocs, steadyAllocBudget)
	}
	if st := opts.Engine.Stats(); st.HitRate() < 0.9 {
		t.Errorf("warm loop hit rate %.2f, want >= 0.9 (%+v)", st.HitRate(), st)
	}
}
