package graphgen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"maskedspgemm/internal/sparse"
)

// corpusHash is the FNV-64a hash of a matrix's storage: RowPtr, then
// ColIdx, then the bits of Val, each element little-endian.
func corpusHash(m *sparse.CSR[Value]) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range m.RowPtr {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	for _, j := range m.ColIdx {
		binary.LittleEndian.PutUint32(b[:4], uint32(j))
		h.Write(b[:4])
	}
	for _, v := range m.Val {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGeneratorsGolden pins every generator's output bit for bit at
// three seeds, at the sizes of TestGeneratorsAllDeterministic (and of
// each generator's own structure test where that one has none). That
// test only checks that two runs agree with each other, so it cannot
// see a change to how matrices are built that alters the corpus; this
// one can. The hashes were computed with the comparison-sort COO.ToCSR
// and COO-rebuilding Symmetrize that the counting-pass builders
// replaced, before the replacement, so they also pin that the
// replacement left the corpus as it was.
func TestGeneratorsGolden(t *testing.T) {
	gens := []struct {
		name string
		gen  func(seed uint64) *sparse.CSR[Value]
		want [3]uint64
	}{
		{"rmat", func(s uint64) *sparse.CSR[Value] { return RMAT(8, 4, 0.57, 0.19, 0.19, s) }, [3]uint64{0x628d9a802f648c8d, 0x9ba0957a65b7019c, 0x87b80a3d3fe97d01}},
		{"road", func(s uint64) *sparse.CSR[Value] { return RoadNetwork(20, 20, 0.9, s) }, [3]uint64{0x13c4b1240575b084, 0x51d409be639c7661, 0xee78fc40b37e1615}},
		{"web", func(s uint64) *sparse.CSR[Value] { return WebGraph(300, 4, 0.4, s) }, [3]uint64{0x3644978f195216dd, 0xa550d2e575e1837f, 0xd7756f82b0d6a972}},
		{"circuit", func(s uint64) *sparse.CSR[Value] { return Circuit(300, 2, 0.5, 2, 50, s) }, [3]uint64{0x4e660a1e6607f953, 0xab925953d20c3c65, 0x3c69a7223eb6c9fe}},
		{"er", func(s uint64) *sparse.CSR[Value] { return ErdosRenyi(200, 400, s) }, [3]uint64{0x9bb77594579c19ef, 0xb06c39582475f1aa, 0x33b6d77bc9b3339a}},
		{"smallworld", func(s uint64) *sparse.CSR[Value] { return SmallWorld(200, 6, 0.2, s) }, [3]uint64{0x51289459af99e08d, 0xb296a14a258cca87, 0xbd138de18129bf21}},
		{"geometric", func(s uint64) *sparse.CSR[Value] { return Geometric(500, 0.08, s) }, [3]uint64{0x20a54993bd0460e8, 0xff4a9bd1d986f6b0, 0xec76134ef4e15378}},
		{"kronecker", func(s uint64) *sparse.CSR[Value] { return KroneckerNoisy(8, 4, 0.57, 0.19, 0.19, 0.05, s) }, [3]uint64{0x7ffceb299dc87de6, 0x8e5e74e4c310f36b, 0x0787a93994e49f85}},
		{"bipartite", func(s uint64) *sparse.CSR[Value] { return Bipartite(40, 70, 500, s) }, [3]uint64{0x10490bf8a1a899b2, 0x8c5e51ebedba4ffe, 0x4017511878f817ab}},
	}
	seeds := [3]uint64{1, 5, 42}
	for _, g := range gens {
		for k, seed := range seeds {
			if got := corpusHash(g.gen(seed)); got != g.want[k] {
				t.Errorf("%s seed %d: hash %#016x, want %#016x", g.name, seed, got, g.want[k])
			}
		}
	}
}
