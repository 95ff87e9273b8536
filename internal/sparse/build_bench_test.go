package sparse_test

import (
	"math/rand"
	"testing"

	"maskedspgemm/internal/graphgen"
	"maskedspgemm/internal/sparse"
)

// BenchmarkBuild times matrix construction per stored input entry
// (ns/nnz): ToCSR on the matrix's triples in shuffled order, and
// Symmetrize and Transpose on the matrix itself, for a skewed RMAT graph
// with 2^16 vertices and a 300 x 300 road lattice. Both are symmetric,
// as the corpus graphs are, so Symmetrize/lower also times its merge
// path on the strictly lower triangle, the shape of a directed input.
// Symmetrize is a transpose plus two row merges, so its ns/nnz should
// stay within a small multiple of Transpose's.
//
//	go test -run '^$' -bench '^BenchmarkBuild$' -count 5 ./internal/sparse
func BenchmarkBuild(b *testing.B) {
	graphs := []struct {
		name string
		m    *sparse.CSR[float64]
	}{
		{"rmat-2^16", graphgen.RMAT(16, 8, 0.57, 0.19, 0.19, 0x117E)},
		{"lattice-300x300", graphgen.RoadNetwork(300, 300, 0.95, 0x6A9)},
	}
	for _, g := range graphs {
		m, lower := g.m, sparse.Tril(g.m)
		coo := shuffledTriples(m, 1)
		for _, op := range []struct {
			name string
			nnz  int64
			run  func()
		}{
			{"ToCSR", m.NNZ(), func() { coo.ToCSR() }},
			{"Symmetrize", m.NNZ(), func() { sparse.Symmetrize(m) }},
			{"Symmetrize/lower", lower.NNZ(), func() { sparse.Symmetrize(lower) }},
			{"Transpose", m.NNZ(), func() { sparse.Transpose(m) }},
		} {
			b.Run(g.name+"/"+op.name, func(b *testing.B) {
				for b.Loop() {
					op.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(op.nnz), "ns/nnz")
			})
		}
	}
}

// shuffledTriples returns m's entries as triples in a seeded random
// order.
func shuffledTriples(m *sparse.CSR[float64], seed int64) *sparse.COO[float64] {
	coo := sparse.NewCOO[float64](m.Rows, m.Cols, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			coo.Add(sparse.Index(i), j, vals[k])
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(coo.I), func(a, b int) {
		coo.I[a], coo.I[b] = coo.I[b], coo.I[a]
		coo.J[a], coo.J[b] = coo.J[b], coo.J[a]
		coo.V[a], coo.V[b] = coo.V[b], coo.V[a]
	})
	return coo
}
