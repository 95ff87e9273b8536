package spgemm_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"maskedspgemm/spgemm"
)

// randomTriples returns a rows×cols matrix whose entries are present
// with probability density and carry small integer values, so every
// semiring's sums are exact whatever order the kernel adds them in.
// Every seventh row is left empty.
func randomTriples(t *testing.T, rows, cols int, density float64, seed uint64) *spgemm.Matrix {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var entries []spgemm.Triple
	for i := range rows {
		if i%7 == 3 {
			continue
		}
		for j := range cols {
			if rng.Float64() < density {
				entries = append(entries, spgemm.Triple{Row: i, Col: j, Val: float64(1 + rng.IntN(4))})
			}
		}
	}
	m, err := spgemm.FromTriples(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// maskedOracle computes mask ⊙ (a × b) over sr from the definition:
// each position the mask stores that at least one k matches, valued the
// sum of products (SRPlusTimes), the number of matches (SRPlusPair) or
// true (SROrAnd). Operand values are positive, so no match sums to zero.
func maskedOracle(t *testing.T, sr spgemm.Semiring, mask, a, b *spgemm.Matrix) *spgemm.Matrix {
	t.Helper()
	var entries []spgemm.Triple
	for i := range mask.Rows() {
		mCols, _ := mask.Row(i)
		aCols, aVals := a.Row(i)
		for _, j := range mCols {
			matches, sum := 0, 0.0
			for p, k := range aCols {
				if b.Has(int(k), int(j)) {
					matches++
					sum += aVals[p] * b.At(int(k), int(j))
				}
			}
			if matches == 0 {
				continue
			}
			v := sum
			switch sr {
			case spgemm.SRPlusPair:
				v = float64(matches)
			case spgemm.SROrAnd:
				v = 1
			}
			entries = append(entries, spgemm.Triple{Row: i, Col: int(j), Val: v})
		}
	}
	want, err := spgemm.FromTriples(mask.Rows(), mask.Cols(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestMxMOptionsAgreeWithOracle holds the masked product of rectangular
// operands to its definition under every semiring and every tuning
// knob: one and several workers, a warm engine, a recorder, a context,
// input validation and the resilience extras. κ and the tile count are
// core.Config's; core's TestConfigExtremesAgreeWithOracle runs them at
// their extremes. Each knob may change how the product is computed,
// never what it is.
func TestMxMOptionsAgreeWithOracle(t *testing.T) {
	const m, k, n = 37, 23, 41
	a := randomTriples(t, m, k, 0.25, 1)
	b := randomTriples(t, k, n, 0.3, 2)
	mask := randomTriples(t, m, n, 0.35, 3)

	variants := []struct {
		name string
		set  func(*spgemm.Options)
	}{
		{"defaults", func(*spgemm.Options) {}},
		{"serial", func(o *spgemm.Options) { o.Workers = 1 }},
		{"three-workers", func(o *spgemm.Options) { o.Workers = 3 }},
		{"engine", func(o *spgemm.Options) { o.Engine = spgemm.NewEngine(spgemm.EngineConfig{}) }},
		{"stats", func(o *spgemm.Options) { o.Stats = spgemm.NewStatsRecorder() }},
		{"context", func(o *spgemm.Options) { o.Context = context.Background() }},
		{"validate-inputs", func(o *spgemm.Options) { o.ValidateInputs = true }},
		{"watchdog", func(o *spgemm.Options) { o.StallTimeout = time.Minute }},
	}
	for _, sr := range []spgemm.Semiring{spgemm.SRPlusTimes, spgemm.SRPlusPair, spgemm.SROrAnd} {
		want := maskedOracle(t, sr, mask, a, b)
		if want.NNZ() == 0 || want.NNZ() == mask.NNZ() {
			t.Fatalf("semiring %d: oracle keeps %d of %d mask entries; the fixture should keep some and drop some",
				sr, want.NNZ(), mask.NNZ())
		}
		for _, v := range variants {
			t.Run(fmt.Sprintf("semiring=%d/%s", sr, v.name), func(t *testing.T) {
				o := spgemm.Defaults()
				o.Semiring = sr
				v.set(&o)
				// Twice: the second call runs warm on an engine and
				// against whatever the first left in a recorder.
				for call := range 2 {
					got, err := spgemm.MxM(mask, a, b, o)
					if err != nil {
						t.Fatalf("call %d: %v", call, err)
					}
					if !got.Equal(want) {
						t.Fatalf("call %d: product differs from the definition (nnz %d, want %d)", call, got.NNZ(), want.NNZ())
					}
				}
				if o.Stats != nil {
					if st := o.Stats.Stats(); st.Runs != 2 {
						t.Errorf("recorder counted %d runs, want 2", st.Runs)
					}
				}
			})
		}
	}
}

// Known graphs, as undirected edge lists on n vertices.

func completeEdges(n int) [][2]int {
	var e [][2]int
	for i := range n {
		for j := i + 1; j < n; j++ {
			e = append(e, [2]int{i, j})
		}
	}
	return e
}

func cycleEdges(n int) [][2]int {
	var e [][2]int
	for i := range n {
		e = append(e, [2]int{i, (i + 1) % n})
	}
	return e
}

func pathEdges(n int) [][2]int {
	var e [][2]int
	for i := 1; i < n; i++ {
		e = append(e, [2]int{i - 1, i})
	}
	return e
}

// starEdges joins hub 0 to the leaves 1..leaves.
func starEdges(leaves int) [][2]int {
	var e [][2]int
	for v := 1; v <= leaves; v++ {
		e = append(e, [2]int{0, v})
	}
	return e
}

// wheelEdges is a rim cycle on 1..rim with hub 0 joined to every rim
// vertex: rim triangles, each rim edge in one, each spoke in two.
func wheelEdges(rim int) [][2]int {
	e := starEdges(rim)
	for v := 1; v <= rim; v++ {
		e = append(e, [2]int{v, v%rim + 1})
	}
	return e
}

// octahedronEdges is K_{2,2,2}: every pair except the three antipodal
// ones (v, v+3). It has eight triangles, each edge in exactly two.
func octahedronEdges() [][2]int {
	var e [][2]int
	for _, p := range completeEdges(6) {
		if p[1]-p[0] != 3 {
			e = append(e, p)
		}
	}
	return e
}

// petersenEdges is the Petersen graph: girth five, so no triangles.
func petersenEdges() [][2]int {
	var e [][2]int
	for i := range 5 {
		e = append(e, [2]int{i, (i + 1) % 5}, [2]int{i, i + 5}, [2]int{5 + i, 5 + (i+2)%5})
	}
	return e
}

// shift renumbers the edges' vertices by off.
func shift(edges [][2]int, off int) [][2]int {
	out := make([][2]int, len(edges))
	for i, p := range edges {
		out[i] = [2]int{p[0] + off, p[1] + off}
	}
	return out
}

func graphOf(t *testing.T, n int, edges [][2]int) *spgemm.Matrix {
	t.Helper()
	g, err := spgemm.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// burkhardtCount counts a's triangles with the paper's kernel through
// the facade: the sum of A ⊙ (A×A) over PlusPair, each triangle six times.
func burkhardtCount(a *spgemm.Matrix, o spgemm.Options) (int64, error) {
	o.Semiring = spgemm.SRPlusPair
	c, err := spgemm.MxM(a, a, a, o)
	if err != nil {
		return 0, err
	}
	return int64(c.Sum()) / 6, nil
}

// TestTriangleCountKnownGraphs counts triangles of graphs whose count is
// known in closed form, with the facade's count and the paper's kernel,
// on the default pool and on one worker.
func TestTriangleCountKnownGraphs(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		want  int64
	}{
		{"K3", 3, completeEdges(3), 1},
		{"K4", 4, completeEdges(4), 4},
		{"K6", 6, completeEdges(6), 20},
		{"K9", 9, completeEdges(9), 84},
		{"C5", 5, cycleEdges(5), 0},
		{"path", 8, pathEdges(8), 0},
		{"star", 9, starEdges(8), 0},
		{"wheel", 7, wheelEdges(6), 6},
		{"octahedron", 6, octahedronEdges(), 8},
		{"petersen", 10, petersenEdges(), 0},
		{"two-K4s", 8, append(completeEdges(4), shift(completeEdges(4), 4)...), 8},
		{"no-edges", 5, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := graphOf(t, tc.n, tc.edges)
			for _, workers := range []int{0, 1} {
				o := spgemm.Defaults()
				o.Workers = workers
				for _, f := range []struct {
					name  string
					count func(*spgemm.Matrix, spgemm.Options) (int64, error)
				}{{"TriangleCount", spgemm.TriangleCount}, {"A⊙(A×A)/6", burkhardtCount}} {
					got, err := f.count(g, o)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", f.name, workers, err)
					}
					if got != tc.want {
						t.Errorf("%s workers=%d: %d triangles, want %d", f.name, workers, got, tc.want)
					}
				}
			}
		})
	}
}

// TestKTrussKnownGraphs peels graphs whose k-truss follows from each
// edge's triangle count: every edge of a k-truss lies
// in at least k-2 of the truss's own triangles.
func TestKTrussKnownGraphs(t *testing.T) {
	k5Pendant := append(completeEdges(5), [2]int{0, 5})
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		k     int
		want  [][2]int // the truss's edges
	}{
		// Each edge of K5 lies in three triangles.
		{"K5/k=3", 5, completeEdges(5), 3, completeEdges(5)},
		{"K5/k=5", 5, completeEdges(5), 5, completeEdges(5)},
		{"K5/k=6", 5, completeEdges(5), 6, nil},
		// The pendant edge lies in no triangle.
		{"K5-pendant/k=3", 6, k5Pendant, 3, completeEdges(5)},
		// Rim edges lie in one triangle: at k=4 they go, and the spokes,
		// left with none, follow.
		{"wheel/k=3", 7, wheelEdges(6), 3, wheelEdges(6)},
		{"wheel/k=4", 7, wheelEdges(6), 4, nil},
		{"octahedron/k=4", 6, octahedronEdges(), 4, octahedronEdges()},
		{"octahedron/k=5", 6, octahedronEdges(), 5, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := graphOf(t, tc.n, tc.edges)
			want := graphOf(t, tc.n, tc.want).Pattern()
			truss, rounds, err := spgemm.KTruss(g, tc.k, spgemm.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			if rounds < 1 {
				t.Errorf("%d rounds, want at least one", rounds)
			}
			if !truss.Pattern().Equal(want) {
				t.Errorf("truss has %d entries, want the %d of %v", truss.NNZ(), want.NNZ(), tc.want)
			}
		})
	}
}

// TestBFSKnownGraphs pins hop levels on graphs where they follow from
// the shape: the path's distances, the cycle's wrap-around, the grid's
// Manhattan distance, and -1 for a vertex the source cannot reach.
func TestBFSKnownGraphs(t *testing.T) {
	const side = 4
	var grid [][2]int
	gridLevels := make([]int32, side*side)
	for r := range side {
		for c := range side {
			v := r*side + c
			gridLevels[v] = int32(r + c)
			if c+1 < side {
				grid = append(grid, [2]int{v, v + 1})
			}
			if r+1 < side {
				grid = append(grid, [2]int{v, v + side})
			}
		}
	}
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		src   int
		want  []int32
	}{
		{"path-from-end", 5, pathEdges(5), 0, []int32{0, 1, 2, 3, 4}},
		{"path-from-middle", 5, pathEdges(5), 2, []int32{2, 1, 0, 1, 2}},
		{"cycle", 6, cycleEdges(6), 0, []int32{0, 1, 2, 3, 2, 1}},
		{"star-from-leaf", 5, starEdges(4), 3, []int32{1, 2, 2, 0, 2}},
		{"grid-from-corner", side * side, grid, 0, gridLevels},
		{"two-components", 6, append(pathEdges(3), shift(pathEdges(3), 3)...), 1, []int32{1, 0, 1, -1, -1, -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := spgemm.BFS(graphOf(t, tc.n, tc.edges), tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("levels %v, want %v", got, tc.want)
			}
		})
	}
}
