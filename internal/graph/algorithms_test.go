package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/sparse"
)

func TestConnectedComponentsLabelPropMatchesBFS(t *testing.T) {
	f := func(seed uint64) bool {
		a := graphgen.ErdosRenyi(60, 50, seed) // sparse enough to fragment
		viaBFS, err := ConnectedComponents(a)
		if err != nil {
			return false
		}
		res, err := ConnectedComponentsLabelProp(a, nil)
		if err != nil {
			return false
		}
		if res.Components != viaBFS {
			return false
		}
		// Labels must be consistent: same component ⟺ same label.
		for i := 0; i < a.Rows; i++ {
			for _, j := range a.RowCols(i) {
				if res.Label[i] != res.Label[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConnectedComponentsLabelIsMinimum(t *testing.T) {
	// Two disjoint triangles: labels must be the smallest ids, 0 and 3.
	coo := sparse.NewCOO[float64](6, 6, 12)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		coo.Add(sparse.Index(e[0]), sparse.Index(e[1]), 1)
		coo.Add(sparse.Index(e[1]), sparse.Index(e[0]), 1)
	}
	res, err := ConnectedComponentsLabelProp(coo.ToCSR(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 0, 0, 3, 3, 3}
	for v, l := range res.Label {
		if l != want[v] {
			t.Errorf("label[%d] = %d, want %d", v, l, want[v])
		}
	}
	if res.Components != 2 {
		t.Errorf("components = %d, want 2", res.Components)
	}
}

// bruteDijkstra is the SSSP oracle.
func bruteDijkstra(a *sparse.CSR[float64], src int) []float64 {
	n := a.Rows
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		cols, w := a.Row(u)
		for p, v := range cols {
			if d := dist[u] + w[p]; d < dist[v] {
				dist[v] = d
			}
		}
	}
}

func weightedGraph(n, edges int, seed int64) *sparse.CSR[float64] {
	r := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO[float64](n, n, int64(edges*2))
	for e := 0; e < edges; e++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		w := float64(r.Intn(9) + 1)
		coo.Add(sparse.Index(i), sparse.Index(j), w)
		coo.Add(sparse.Index(j), sparse.Index(i), w)
	}
	m := coo.ToCSR()
	// Duplicate edges summed their weights; rescale to keep them small
	// and positive (any positive value works for the oracle comparison).
	return m
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		a := weightedGraph(40, 100, seed)
		src := int(uint(seed) % 40)
		got, err := SSSP(a, src, nil)
		if err != nil {
			return false
		}
		want := bruteDijkstra(a, src)
		for v := range want {
			if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
				return false
			}
			if !math.IsInf(want[v], 1) && math.Abs(want[v]-got[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSSSPPathGraph(t *testing.T) {
	// 0 -2- 1 -3- 2: distances 0, 2, 5.
	coo := sparse.NewCOO[float64](3, 3, 4)
	coo.Add(0, 1, 2)
	coo.Add(1, 0, 2)
	coo.Add(1, 2, 3)
	coo.Add(2, 1, 3)
	dist, err := SSSP(coo.ToCSR(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 5}
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("dist[%d] = %v, want %v", v, dist[v], want[v])
		}
	}
}

func TestSSSPErrors(t *testing.T) {
	a := weightedGraph(10, 20, 1)
	if _, err := SSSP(a, -1, nil); err == nil {
		t.Error("negative source accepted")
	}
	coo := sparse.NewCOO[float64](2, 2, 1)
	coo.Add(0, 1, -1)
	if _, err := SSSP(coo.ToCSR(), 0, nil); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestPageRankProperties(t *testing.T) {
	a := graphgen.RMAT(8, 8, 0.57, 0.19, 0.19, 5)
	res, err := PageRank(a, 0.85, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	minRank := math.Inf(1)
	for _, r := range res.Rank {
		sum += r
		if r < minRank {
			minRank = r
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v, want 1", sum)
	}
	if minRank <= 0 {
		t.Errorf("non-positive rank %v", minRank)
	}
	if res.Delta > 1e-9 {
		t.Errorf("did not converge: delta %v after %d iters", res.Delta, res.Iterations)
	}

	// The highest-degree vertex should outrank the median vertex on a
	// symmetric scale-free graph.
	deg := sparse.RowDegrees(a)
	hub, hubDeg := 0, int64(0)
	for v, d := range deg {
		if d > hubDeg {
			hub, hubDeg = v, d
		}
	}
	median := res.Rank[len(res.Rank)/2]
	if res.Rank[hub] <= median {
		t.Errorf("hub rank %v not above median %v", res.Rank[hub], median)
	}
}

func TestPageRankStarGraph(t *testing.T) {
	// Star: center 0 connected to 1..4, undirected. Center must have the
	// highest rank, leaves all equal.
	coo := sparse.NewCOO[float64](5, 5, 8)
	for v := 1; v < 5; v++ {
		coo.Add(0, sparse.Index(v), 1)
		coo.Add(sparse.Index(v), 0, 1)
	}
	res, err := PageRank(coo.ToCSR(), 0.85, 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	for v := 2; v < 5; v++ {
		if math.Abs(res.Rank[v]-res.Rank[1]) > 1e-9 {
			t.Errorf("leaf ranks differ: %v vs %v", res.Rank[v], res.Rank[1])
		}
	}
	if res.Rank[0] <= res.Rank[1] {
		t.Error("center does not outrank leaves")
	}
}

func TestPageRankDangling(t *testing.T) {
	// Directed chain with a dangling sink: 0 -> 1 -> 2. Must still sum
	// to 1 and terminate.
	coo := sparse.NewCOO[float64](3, 3, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 2, 1)
	res, err := PageRank(coo.ToCSR(), 0.85, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v with dangling vertex", sum)
	}
	if !(res.Rank[2] > res.Rank[1] && res.Rank[1] > res.Rank[0]) {
		t.Errorf("chain ordering wrong: %v", res.Rank)
	}
}

func TestPageRankErrors(t *testing.T) {
	a := graphgen.ErdosRenyi(10, 20, 1)
	if _, err := PageRank(a, 0, 1e-6, 10); err == nil {
		t.Error("damping 0 accepted")
	}
	if _, err := PageRank(a, 1, 1e-6, 10); err == nil {
		t.Error("damping 1 accepted")
	}
	rect := sparse.NewCSR[float64](3, 4, 0)
	if _, err := PageRank(rect, 0.85, 1e-6, 10); err == nil {
		t.Error("rectangular matrix accepted")
	}
}
