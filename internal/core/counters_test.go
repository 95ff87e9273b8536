package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

func TestInstrumentedMatchesPlainResult(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	a := randMatrix(50, 50, 0.12, r)
	cfg := DefaultConfig()
	cfg.Workers = 2
	want, err := MaskedSpGEMM[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, counters, err := MaskedSpGEMMInstrumented[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(want, got) {
		t.Error("instrumentation changed the result")
	}
	if counters.Gathered != got.NNZ() {
		t.Errorf("Gathered = %d, want output nnz %d", counters.Gathered, got.NNZ())
	}
	if counters.Updates == 0 || counters.Rows == 0 {
		t.Errorf("empty counters: %+v", counters)
	}
}

func TestInstrumentedCountsMatchProfile(t *testing.T) {
	// With the MaskLoad space, the actual update count must equal the
	// symbolic flop count exactly, and mask loads must equal nnz(M) over
	// rows with a non-empty mask (all of them here).
	r := rand.New(rand.NewSource(112))
	a := randMatrix(40, 40, 0.25, r) // dense enough that no row is empty
	cfg := DefaultConfig()
	cfg.Iteration = MaskLoad
	cfg.Workers = 2
	_, counters, err := MaskedSpGEMMInstrumented[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileMasked(a, a, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if counters.Updates != p.Flops {
		t.Errorf("Updates = %d, want flops %d", counters.Updates, p.Flops)
	}
	var maskedRows int64
	var maskVolume int64
	for i := 0; i < a.Rows; i++ {
		if n := a.RowNNZ(i); n > 0 {
			maskedRows++
			maskVolume += n
		}
	}
	if counters.Rows != maskedRows {
		t.Errorf("Rows = %d, want %d", counters.Rows, maskedRows)
	}
	if counters.MaskLoads != maskVolume {
		t.Errorf("MaskLoads = %d, want %d", counters.MaskLoads, maskVolume)
	}
	// Rejections + accepted = updates; accepted >= gathered entries.
	if counters.Rejected >= counters.Updates {
		t.Error("everything rejected?")
	}
}

// railMatrix is a circuit-like structure: a band plus one dense rail,
// so Eq. 3 co-iterates the rail row and scans the band rows.
func railMatrix() *sparse.CSR[float64] {
	coo := sparse.NewCOO[float64](400, 400, 0)
	// Band.
	for i := 0; i < 399; i++ {
		coo.Add(sparse.Index(i), sparse.Index(i+1), 1)
		coo.Add(sparse.Index(i+1), sparse.Index(i), 1)
	}
	// One dense rail.
	for j := 2; j < 400; j += 2 {
		coo.Add(0, sparse.Index(j), 1)
		coo.Add(sparse.Index(j), 0, 1)
	}
	return coo.ToCSR()
}

func TestInstrumentedHybridDoesLessWork(t *testing.T) {
	// On a circuit-like structure the hybrid space must attempt far
	// fewer accumulator updates than the pure linear scan — the counter
	// view of the Fig. 14 rescue.
	a := railMatrix()
	cfg := DefaultConfig()
	cfg.Workers = 1

	linCfg := cfg
	linCfg.Iteration = MaskLoad
	_, lin, err := MaskedSpGEMMInstrumented[float64](semiring.PlusTimes[float64]{}, a, a, a, linCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, hyb, err := MaskedSpGEMMInstrumented[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Updates*2 >= lin.Updates {
		t.Errorf("hybrid updates %d not well below linear %d", hyb.Updates, lin.Updates)
	}
	if hyb.Gathered != lin.Gathered {
		t.Errorf("output sizes differ: %d vs %d", hyb.Gathered, lin.Gathered)
	}
}

func TestInstrumentedAllAccumulators(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	a := randMatrix(30, 30, 0.2, r)
	for _, ak := range []accum.Kind{accum.DenseKind, accum.HashKind} {
		cfg := DefaultConfig()
		cfg.Accumulator = ak
		cfg.Workers = 2
		_, counters, err := MaskedSpGEMMInstrumented[float64](semiring.PlusTimes[float64]{}, a, a, a, cfg)
		if err != nil {
			t.Fatalf("%v: %v", ak, err)
		}
		if counters.Updates == 0 {
			t.Errorf("%v: no updates counted", ak)
		}
	}
}

// TestCountingAccumulatorFillsCacheLine extends accum's
// TestHeadersFillCacheLines to the instrumented entry point's decorator:
// one per worker, allocated back to back, written on every row.
func TestCountingAccumulatorFillsCacheLine(t *testing.T) {
	for name, size := range map[string]uintptr{
		"float64": unsafe.Sizeof(countingAccumulator[float64]{}),
		"int64":   unsafe.Sizeof(countingAccumulator[int64]{}),
	} {
		if size%64 != 0 {
			t.Errorf("countingAccumulator[%s] is %d bytes, not a whole number of cache lines", name, size)
		}
	}
}

// TestCounterBlockLayout pins the two concurrently written counter
// blocks at two cache lines (the adjacent-line prefetcher pulls pairs):
// a field added without re-balancing the pad array, or a pad shrunk,
// lets neighboring blocks false-share.
func TestCounterBlockLayout(t *testing.T) {
	for name, size := range map[string]uintptr{
		"obs.WorkerCounters":  unsafe.Sizeof(obs.WorkerCounters{}),
		"core.atomicCounters": unsafe.Sizeof(atomicCounters{}),
	} {
		if size != 128 {
			t.Errorf("%s is %d bytes, want 128 (two cache lines)", name, size)
		}
	}
}
