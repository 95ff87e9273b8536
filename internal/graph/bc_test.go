package graph

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/sparse"
)

// bcVector is the formulation BetweennessCentrality replaced, kept as
// the reference for its sum order: per source, iterated masked sparse
// vector × matrix products (pushSpVM, unvisited mask) count the paths,
// and the dependency sweep walks the stored frontiers back. Both sum
// every sigma in ascending order of the previous level and every
// dependency in row order, so on a unit-valued A their scores are
// bit-identical.
func bcVector(a *sparse.CSR[float64], sources []int) []float64 {
	n := a.Rows
	bc := make([]float64, n)
	for _, src := range sources {
		sigma := make([]float64, n)
		delta := make([]float64, n)
		level := make([]int32, n)
		for i := range level {
			level[i] = -1
		}
		sigma[src], level[src] = 1, 0
		fronts := []spVec{{idx: []sparse.Index{sparse.Index(src)}, val: []float64{1}}}
		for depth := int32(1); ; depth++ {
			next := pushSpVM(fronts[len(fronts)-1], a, level)
			if len(next.idx) == 0 {
				break
			}
			for p, v := range next.idx {
				level[v], sigma[v] = depth, next.val[p]
			}
			fronts = append(fronts, next)
		}
		for d := len(fronts) - 1; d >= 1; d-- {
			for _, u := range fronts[d-1].idx {
				var dep float64
				for _, v := range a.RowCols(int(u)) {
					if level[v] == int32(d) {
						dep += sigma[u] / sigma[v] * (1 + delta[v])
					}
				}
				delta[u] = dep
			}
		}
		for v := range n {
			if v != src && level[v] >= 0 {
				bc[v] += delta[v]
			}
		}
	}
	return bc
}

// spVec is a sparse vector sorted by index.
type spVec struct {
	idx []sparse.Index
	val []float64
}

// pushSpVM is the masked sparse vector × matrix product over (+, ×),
// pushed: y_j = Σ_u f_u·a_uj for every j with level[j] = -1, each sum
// taken in ascending u. y is sorted.
func pushSpVM(f spVec, a *sparse.CSR[float64], level []int32) spVec {
	sum := map[sparse.Index]float64{}
	for p, u := range f.idx {
		cols, vals := a.Row(int(u))
		for q, j := range cols {
			if level[j] < 0 {
				sum[j] += f.val[p] * vals[q]
			}
		}
	}
	y := spVec{idx: slices.Sorted(maps.Keys(sum))}
	for _, j := range y.idx {
		y.val = append(y.val, sum[j])
	}
	return y
}

// withIsolated returns a with one more vertex, n, that has no edges.
func withIsolated(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	c := a.Clone()
	c.RowPtr = append(c.RowPtr, a.NNZ())
	c.Rows, c.Cols = a.Rows+1, a.Cols+1
	return c
}

// directed keeps one direction of most of a symmetric graph's edges and
// both of some, so shortest paths differ from their reverses and the
// graph has cycles.
func directed(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](a.Rows, a.Cols, a.NNZ())
	for i := range a.Rows {
		for _, j := range a.RowCols(i) {
			if (int(j) < i) == ((i*7+int(j)*3)%5 == 0) || (i+int(j))%4 == 0 {
				coo.Add(sparse.Index(i), j, 1)
			}
		}
	}
	return coo.ToCSR()
}

// bcFixtures are the graphs the BC tests run on: a road lattice, an RMAT
// graph, an Erdős–Rényi graph with an isolated last vertex, and a
// directed graph.
func bcFixtures() []struct {
	name string
	a    *sparse.CSR[float64]
} {
	return []struct {
		name string
		a    *sparse.CSR[float64]
	}{
		{"road", graphgen.RoadNetwork(12, 15, 0.95, 9)},
		{"rmat", graphgen.RMAT(7, 6, 0.57, 0.19, 0.19, 77)},
		{"er", withIsolated(graphgen.ErdosRenyi(130, 300, 4))},
		{"directed", directed(graphgen.ErdosRenyi(130, 500, 5))},
	}
}

// TestBCBitIdenticalAcrossWorkers pins the scores with ==: at 1, 2, 3
// and 7 workers, on every fixture, for source lists that are not a
// multiple of the worker count, repeat sources, hold an edgeless vertex,
// and are wider than the graph's vertex count allows without repeats —
// each equal to the replaced vector formulation's scores.
func TestBCBitIdenticalAcrossWorkers(t *testing.T) {
	for _, g := range bcFixtures() {
		n := g.a.Rows
		wide := make([]int, 64)
		for b := range wide {
			wide[b] = (b * 37) % n
		}
		for _, sources := range [][]int{{3, 40, 77, 120, 9, 14, 2, 99, 51, 60, 11}, {5, 5, 9, 5}, {n - 1, 0}, {17}, wide} {
			t.Run(fmt.Sprintf("%s/s=%d", g.name, len(sources)), func(t *testing.T) {
				want := bcVector(g.a, sources)
				for _, workers := range []int{1, 2, 3, 7} {
					cfg := core.DefaultConfig()
					cfg.Workers = workers
					got, err := BetweennessCentrality(g.a, sources, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("workers=%d: scores differ from the vector formulation's", workers)
					}
				}
			})
		}
	}
}

// TestBCMatchesBrandes holds the scores to Brandes' algorithm written
// directly (bruteBC), within 1e-9: on every fixture, on random ER graphs,
// and on directed graphs, where paths follow A's rows forward.
func TestBCMatchesBrandes(t *testing.T) {
	check := func(name string, a *sparse.CSR[float64], sources []int) {
		t.Helper()
		t.Run(name, func(t *testing.T) {
			got, err := BetweennessCentrality(a, sources, testCfg())
			if err != nil {
				t.Fatal(err)
			}
			want := bruteBC(a, sources)
			for v := range want {
				if d := got[v] - want[v]; d > 1e-9 || d < -1e-9 {
					t.Fatalf("bc[%d] = %v, Brandes says %v", v, got[v], want[v])
				}
			}
		})
	}
	for _, g := range bcFixtures() {
		check(g.name, g.a, []int{3, 40, 77, 120, 0})
	}
	for seed := uint64(1); seed <= 14; seed++ {
		check(fmt.Sprintf("er/seed=%d", seed), graphgen.ErdosRenyi(25, 60, seed), []int{0, 5, 11})
		check(fmt.Sprintf("er-30/seed=%d", seed), graphgen.ErdosRenyi(30, 70, seed), []int{0, 7, 13, 21})
		check(fmt.Sprintf("directed-er/seed=%d", seed), directed(graphgen.ErdosRenyi(40, 160, seed)), []int{0, 3, 5, 9})
		check(fmt.Sprintf("directed-rmat/seed=%d", seed), directed(graphgen.RMAT(6, 4, 0.57, 0.19, 0.19, seed)), []int{0, 3, 5, 9})
	}
	check("triu", sparse.Triu(graphgen.ErdosRenyi(40, 160, 3)), []int{0, 3, 5, 9})
}

// TestBCEdgeCases: no sources give zero scores; a source outside [0, n)
// or a non-square A is ErrShape with a nil result, reported before any
// work — the panic below would fire if a source ran; a pre-cancelled
// context is ErrCanceled; and a panic in a worker is ErrPanic, at one
// worker and at two.
func TestBCEdgeCases(t *testing.T) {
	a := smallGraph(5)
	t.Run("no-sources", func(t *testing.T) {
		if bc, err := BetweennessCentrality(a, nil, testCfg()); err != nil || len(bc) != a.Rows || slices.Max(bc) != 0 || slices.Min(bc) != 0 {
			t.Errorf("no sources: %v %v", bc, err)
		}
	})
	// broken has an out-of-range column in row 0, so a source that
	// reaches row 0 panics.
	broken := sparse.NewCSR[float64](3, 3, 2)
	broken.AppendRow(0, []sparse.Index{1, 7}, []float64{1, 1})
	broken.AppendRow(1, []sparse.Index{0}, []float64{1})
	broken.AppendRow(2, nil, nil)
	for _, sources := range [][]int{{0, -1}, {0, 3}, {999}} {
		t.Run(fmt.Sprintf("sources=%v", sources), func(t *testing.T) {
			if bc, err := BetweennessCentrality(broken, sources, testCfg()); !errors.Is(err, sparse.ErrShape) || bc != nil {
				t.Errorf("sources %v: %v %v, want ErrShape and no result", sources, bc, err)
			}
		})
	}
	t.Run("non-square", func(t *testing.T) {
		rect := sparse.NewCSR[float64](2, 3, 0)
		rect.AppendRow(0, nil, nil)
		rect.AppendRow(1, nil, nil)
		if bc, err := BetweennessCentrality(rect, []int{0}, testCfg()); !errors.Is(err, sparse.ErrShape) || bc != nil {
			t.Errorf("non-square: %v %v, want ErrShape and no result", bc, err)
		}
	})
	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cfg := testCfg()
		cfg.Context = ctx
		if bc, err := BetweennessCentrality(a, []int{0, 1, 2}, cfg); !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.Canceled) || bc != nil {
			t.Errorf("pre-cancelled: %v %v, want ErrCanceled and no result", bc, err)
		}
	})
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("panic/workers=%d", workers), func(t *testing.T) {
			cfg := testCfg()
			cfg.Workers = workers
			if bc, err := BetweennessCentrality(broken, []int{2, 1, 0, 2}, cfg); !errors.Is(err, core.ErrPanic) || bc != nil {
				t.Errorf("a panicking source gave %v %v, want ErrPanic and no result", bc, err)
			}
		})
	}
}

// TestBCWarmAllocs pins what a call allocates: its scores, one state of
// two arrays per worker and the block closure — a count that grows
// neither with the graph's size nor with the number of sources. The
// one exception is the scheduler: a block on more than one worker
// hands its workers to helpers (sched.BlocksE's fixed cost; a last
// block of one source runs inline), so at two workers each further
// block of two sources adds exactly that cost and nothing of BC's own.
func TestBCWarmAllocs(t *testing.T) {
	spawn := testing.AllocsPerRun(20, func() {
		if err := sched.BlocksE(nil, 2, 2, func(int, int, int) {}); err != nil {
			t.Fatal(err)
		}
	})
	small, large := graphgen.RoadNetwork(10, 12, 0.95, 5), graphgen.RoadNetwork(30, 40, 0.95, 5)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			var base float64
			for _, a := range []*sparse.CSR[float64]{small, large} {
				for _, s := range []int{2, 5, 16} {
					sources := make([]int, s)
					for i := range sources {
						sources[i] = (i * 31) % a.Rows
					}
					got := testing.AllocsPerRun(20, func() {
						if _, err := BetweennessCentrality(a, sources, cfg); err != nil {
							t.Fatal(err)
						}
					})
					if base == 0 {
						base = got
					}
					want := base
					if workers == 2 {
						want += float64(s/2-1) * spawn
					}
					if got != want {
						t.Errorf("workers=%d, n=%d, %d sources: %.0f allocations, want %.0f", workers, a.Rows, s, got, want)
					}
				}
			}
			if workers == 1 && base > 6 {
				t.Errorf("one worker: %.0f allocations per call, want at most 6 (scores, states, one state's two arrays, the closure and its block)", base)
			}
		})
	}
}
