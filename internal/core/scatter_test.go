package core

import (
	"errors"
	"math/rand"
	"testing"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// callCounter counts the update-side calls a row kernel makes on its
// accumulator, per method, and forwards them.
type callCounter struct {
	accum.Accumulator[float64]
	calls
}

type calls struct{ update, updateMasked, scatter, scatterMasked int64 }

func (c *callCounter) Update(j sparse.Index, x float64) {
	c.update++
	c.Accumulator.Update(j, x)
}

func (c *callCounter) UpdateMasked(j sparse.Index, x float64) bool {
	c.updateMasked++
	return c.Accumulator.UpdateMasked(j, x)
}

func (c *callCounter) Scatter(aik float64, cols []sparse.Index, vals []float64) {
	c.scatter++
	c.Accumulator.Scatter(aik, cols, vals)
}

func (c *callCounter) ScatterMasked(aik float64, cols []sparse.Index, vals []float64) int {
	c.scatterMasked++
	return c.Accumulator.ScatterMasked(aik, cols, vals)
}

// TestLinearKernelsCallAccumulatorPerBRow is the structural pin of the
// batched contract: the linear traversals make exactly one accumulator
// call per visited B row and none per B entry. The accumulator is an
// interface and the semiring a dictionary, so a per-entry call here is
// three indirect calls per Eq. 2 FLOP — the regression this test exists
// to stop, without disassembly and without a clock.
func TestLinearKernelsCallAccumulatorPerBRow(t *testing.T) {
	a := railMatrix()
	sr := semiring.PlusTimes[float64]{}
	eachRow := func(row func(acc *callCounter, aCols []sparse.Index, aVals []float64, maskCols []sparse.Index)) *callCounter {
		acc := &callCounter{Accumulator: accum.New[float64](accum.HashKind, sr, a.Cols, int64(a.Cols), 32)}
		for i := 0; i < a.Rows; i++ {
			aCols, aVals := a.Row(i)
			row(acc, aCols, aVals, a.RowCols(i))
		}
		return acc
	}
	// Every stored A entry visits one B row.
	visits := a.NNZ()

	acc := eachRow(func(acc *callCounter, aCols []sparse.Index, aVals []float64, _ []sparse.Index) {
		rowVanilla(acc, aCols, aVals, a, nil)
	})
	if acc.calls != (calls{scatter: visits}) {
		t.Errorf("rowVanilla over %d B-row visits: %+v, want one Scatter call each and nothing else", visits, acc.calls)
	}

	acc = eachRow(func(acc *callCounter, aCols []sparse.Index, aVals []float64, maskCols []sparse.Index) {
		rowMaskLoad(acc, aCols, aVals, a, maskCols, nil)
	})
	if acc.calls != (calls{scatterMasked: visits}) {
		t.Errorf("rowMaskLoad over %d B-row visits: %+v, want one ScatterMasked call each and nothing else", visits, acc.calls)
	}

	// κ = 0 makes Eq. 3 choose the linear branch for every B row.
	acc = eachRow(func(acc *callCounter, aCols []sparse.Index, aVals []float64, maskCols []sparse.Index) {
		rowHybrid(sr, acc, aCols, aVals, a, maskCols, 0, nil)
	})
	if acc.calls != (calls{scatterMasked: visits}) {
		t.Errorf("rowHybrid, all linear, over %d B-row visits: %+v, want one ScatterMasked call each and nothing else", visits, acc.calls)
	}

	// At κ = 1 the rail row is co-iterated and the band rows scanned: the
	// linear picks are ScatterMasked calls one for one, and co-iteration's
	// per-match Update is the only per-entry call left.
	var wc obs.WorkerCounters
	acc = eachRow(func(acc *callCounter, aCols []sparse.Index, aVals []float64, maskCols []sparse.Index) {
		rowHybrid(sr, acc, aCols, aVals, a, maskCols, 1, &wc)
	})
	linear, coIter := wc.LinearPicks.Load(), wc.CoIterPicks.Load()
	if linear == 0 || coIter == 0 || linear+coIter != visits {
		t.Fatalf("fixture does not mix the branches: %d linear + %d co-iterated picks over %d visits", linear, coIter, visits)
	}
	if acc.scatterMasked != linear || acc.updateMasked+acc.scatter != 0 {
		t.Errorf("rowHybrid with %d linear picks: %+v, want one ScatterMasked call each and no UpdateMasked", linear, acc.calls)
	}
}

// perEntry answers the batched calls with the per-entry loops they
// stand for, on top of the counting decorator's per-entry methods: the
// reference both the results and the Counters of the batched kernels
// are held to.
type perEntry struct{ *countingAccumulator[float64] }

func (p perEntry) Scatter(aik float64, cols []sparse.Index, vals []float64) {
	for q, j := range cols {
		p.Update(j, aik*vals[q])
	}
}

func (p perEntry) ScatterMasked(aik float64, cols []sparse.Index, vals []float64) (hits int) {
	for q, j := range cols {
		if p.UpdateMasked(j, aik*vals[q]) {
			hits++
		}
	}
	return hits
}

// TestBatchedKernelMatchesPerEntry runs the whole kernel twice over
// every iteration space and accumulator kind — once as shipped, once
// with every batched call replayed entry by entry — and requires the
// same matrix bit for bit and the same instrumented Counters (Updates
// counts batch entries; Rejected is a batch's length minus its hits).
func TestBatchedKernelMatchesPerEntry(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	r := rand.New(rand.NewSource(117))
	noisy := randMatrix(70, 70, 0.12, r)
	for p := range noisy.Val {
		noisy.Val[p] = r.NormFloat64() // sums now depend on the order of addition
	}
	fixtures := []*sparse.CSR[float64]{
		randMatrix(50, 50, 0.12, rand.New(rand.NewSource(111))),
		randMatrix(40, 40, 0.25, rand.New(rand.NewSource(112))),
		railMatrix(),
		noisy,
	}
	for fi, a := range fixtures {
		for _, cfg := range allConfigs() {
			got, counters, err := MaskedSpGEMMInstrumented[float64](sr, a, a, a, cfg)
			if err != nil {
				t.Fatalf("fixture %d, %v: %v", fi, cfg, err)
			}
			var refs []*countingAccumulator[float64]
			want, err := runWrapped(sr, a, cfg, func(inner accum.Accumulator[float64]) accum.Accumulator[float64] {
				d := &countingAccumulator[float64]{inner: inner}
				refs = append(refs, d)
				return perEntry{d}
			})
			if err != nil {
				t.Fatalf("fixture %d, %v, per-entry: %v", fi, cfg, err)
			}
			if !sparse.Equal(want, got) {
				t.Errorf("fixture %d, %v: batched result differs from the per-entry loop", fi, cfg)
			}
			var totals atomicCounters
			for _, d := range refs {
				d.flushInto(&totals)
			}
			if ref := totals.snapshot(); counters != ref {
				t.Errorf("fixture %d, %v: counters %+v, per-entry loop %+v", fi, cfg, counters, ref)
			}
		}
	}
}

// TestScatterGrowPanicQuarantines drives the AccumGrow seam through the
// batched path: a vanilla run on deliberately undersized hash tables
// grows inside Scatter, the armed hook panics there, and the run must
// come back as ErrPanic with the workspace quarantined and the engine
// fit for a clean rerun.
func TestScatterGrowPanicQuarantines(t *testing.T) {
	a := randMatrix(80, 80, 0.15, rand.New(rand.NewSource(115)))
	sr := semiring.PlusTimes[float64]{}
	eng := exec.New(exec.Config{})
	cfg := DefaultConfig()
	cfg.Iteration = Vanilla
	cfg.Workers = 2
	cfg.Engine = eng
	ref, err := MaskedSpGEMM[float64](sr, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sd := chaos.NewSeeded(116)
	sd.Arm(chaos.AccumGrow, chaos.KindPanic, 1, 0)
	quarantined := eng.Stats().Quarantines
	_, err = runWrapped(sr, a, cfg, func(accum.Accumulator[float64]) accum.Accumulator[float64] {
		h := accum.NewHash[float64, semiring.PlusTimes[float64], uint32](sr, 1)
		h.SetGrowHook(func() { chaos.StepHard(sd, chaos.AccumGrow) })
		return h
	})
	if !errors.Is(err, ErrPanic) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want ErrPanic matching chaos.ErrInjected", err)
	}
	if q := eng.Stats().Quarantines; q != quarantined+1 {
		t.Fatalf("quarantines = %d after a panic inside Scatter, want %d", q, quarantined+1)
	}
	if err := eng.SelfCheck(); err != nil {
		t.Fatalf("pool invariants violated after the fault: %v", err)
	}
	clean, err := MaskedSpGEMM[float64](sr, a, a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(ref, clean) {
		t.Fatal("clean rerun differs from reference")
	}
}
