package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/model"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/telemetry"
	"maskedspgemm/internal/tiling"
	"maskedspgemm/spgemm"
)

// This is the only file of the benchmark that calls into internal/*
// packages other than graphgen: one small function per probe, each
// timing one layer's public function in isolation. A refactor of a
// layer's entry points has exactly this file to follow.
//
// A probe is called probeCalls times (200 in a real run); each call is
// wrapped in a span and its time divided by the units of work it did;
// the ledger entry is the median. Probes that need an operand get the
// workload's first graph, cut down to its leading principal submatrix
// of at most probeNNZ entries so that 200 calls of every probe together
// stay within a couple of seconds; the per-nnz and per-row units survive
// the cut. tiling.imbalance alone uses the whole graph: it is exact and
// computed once.

const (
	probeNNZ     = 16 << 10
	probeTiles   = 2048
	barrierWaves = 256
	// accumUpdates is the number of UpdateMasked calls one accumulator
	// replay makes before it stops.
	accumUpdates = 32 << 10
)

type (
	matrix = sparse.CSR[float64]
	ring   = semiring.PlusTimes[float64]
)

// probe is one isolated measurement: run does units of work and returns
// how many; perUnit converts ns per unit into the metric's unit.
type probe struct {
	metric  string
	perUnit float64 // 1 for ns, 1e-3 for us
	run     func() (units float64, err error)
}

// toCSR copies a facade matrix into the internal representation, row by
// row through the public accessor. With a positive limit it keeps only
// the largest leading principal submatrix that has at most limit entries
// (and never fewer than 16 rows).
func toCSR(m *spgemm.Matrix, limit int64) *matrix {
	n := m.Rows()
	if limit > 0 {
		// The operands are symmetric without a diagonal, so the leading
		// i × i block holds twice the entries below the diagonal of its rows.
		var lower int64
		for i := 0; i < m.Rows(); i++ {
			cols, _ := m.Row(i)
			for _, j := range cols {
				if int(j) < i {
					lower++
				}
			}
			if 2*lower > limit && i >= 16 {
				n = i
				break
			}
		}
	}
	out := sparse.NewCSR[float64](n, n, 0)
	for i := 0; i < n; i++ {
		cols, vals := m.Row(i)
		k := 0
		for k < len(cols) && int(cols[k]) < n {
			k++
		}
		out.AppendRow(i, cols[:k], vals[:k])
	}
	return out
}

// lowerWithDiagonal is the solve operand's structure: tril(a) plus a
// unit diagonal.
func lowerWithDiagonal(a *matrix) *matrix {
	l := sparse.NewCSR[float64](a.Rows, a.Cols, a.NNZ())
	var cols []sparse.Index
	var vals []float64
	for i := 0; i < a.Rows; i++ {
		cols, vals = cols[:0], vals[:0]
		for _, j := range a.RowCols(i) {
			if int(j) < i {
				cols, vals = append(cols, j), append(vals, 1)
			}
		}
		l.AppendRow(i, append(cols, sparse.Index(i)), append(vals, 1))
	}
	return l
}

// runProbes times every isolated probe on the workload's first graph
// and stores the medians in l.
func runProbes(first *spgemm.Matrix, calls int, tr *tracer, root int, l map[string]float64) error {
	a := toCSR(first, probeNNZ)
	whole := toCSR(first, 0)
	work := tiling.RowWork(whole, whole, whole)
	l["tiling.imbalance"] = tiling.Imbalance(tiling.BalancedTiles(work, probeTiles), work)

	span := tr.begin("probes", "benchmark", root, 0)
	defer tr.end(span)
	samples := make([]float64, 0, calls)
	all, err := probes(a)
	if err != nil {
		return err
	}
	for _, p := range all {
		samples = samples[:0]
		for i := 0; i < calls; i++ {
			id := tr.begin(p.metric, layerOf(p.metric), span, 0)
			t0 := time.Now()
			units, err := p.run()
			d := time.Since(t0)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", p.metric, err)
			}
			samples = append(samples, float64(d.Nanoseconds())/units*p.perUnit)
		}
		l[p.metric] = median(samples)
	}
	// The accumulator replay reads its own clock around the two halves of
	// every row, so it reports three metrics from one set of calls.
	accumProbes(a, calls, tr, span, l)
	return nil
}

// layerOf is the package a metric name belongs to: its first segment.
func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

func probes(a *matrix) ([]probe, error) {
	p := runtime.GOMAXPROCS(0)
	nnz, rows := float64(a.NNZ()), float64(a.Rows)
	l := lowerWithDiagonal(a)
	work := tiling.RowWork(a, a, a)
	prefix := tiling.PrefixSum(work, p)
	pattern := a.Pattern()
	eng := exec.New(exec.Config{})
	// One cache holds the key PlanLookup hits and takes the stores, which
	// fill it within the first call; from then on every store also evicts,
	// as on a long ktruss-churn run.
	key := exec.PlanKey{A: exec.IDOf(a), Tiles: probeTiles}
	plan := exec.Plan{Tiles: tiling.UniformTiles(a.Rows, 16)}
	build := func() (exec.Plan, error) { return plan, nil }
	storeKey := key
	storeKey.Tiles = 0
	small := smallOperand()
	facade := spgemm.Defaults()
	facade.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	rec := obs.NewRecorder()
	hist := telemetry.NewHist()
	noop := func(_, _ int) {}
	ctx := context.Background()
	claim := func(policy sched.Policy) func() (float64, error) {
		return func() (float64, error) {
			return probeTiles, sched.RunWavesE(ctx, policy, p, sched.SingleWave(probeTiles), noop)
		}
	}
	// One tile per worker and wave: a run narrower than its worker count
	// is clamped to fewer workers and would cross no barrier.
	waves := make([]sched.Wave, barrierWaves)
	for i := range waves {
		waves[i] = sched.Wave{Lo: i * p, Hi: (i + 1) * p}
	}
	barriers, err := sched.NewWavePlan(waves)
	if err != nil {
		return nil, err
	}

	return []probe{
		{"sparse.transpose_ns_per_nnz", 1, func() (float64, error) {
			sparse.Transpose(a)
			return nnz, nil
		}},
		{"sparse.symmetrize_ns_per_nnz", 1, func() (float64, error) {
			sparse.Symmetrize(a)
			return nnz, nil
		}},
		{"sparse.clone_ns_per_nnz", 1, func() (float64, error) {
			a.Clone()
			return nnz, nil
		}},
		{"model.predict_us", 1e-3, func() (float64, error) {
			_, _, err := model.PredictConfig(a, a, a, 0)
			return 1, err
		}},
		{"model.extract_solve_us", 1e-3, func() (float64, error) {
			model.ExtractSolve(l, nil)
			return 1, nil
		}},
		{"tiling.rowwork_ns_per_row", 1, func() (float64, error) {
			tiling.RowWorkParallel(a, a, a, p)
			return rows, nil
		}},
		{"tiling.prefix_ns_per_row", 1, func() (float64, error) {
			tiling.PrefixSum(work, p)
			return rows, nil
		}},
		{"tiling.build_ns_per_tile", 1, func() (float64, error) {
			return float64(len(tiling.BalancedFromPrefix(prefix, probeTiles))), nil
		}},
		{"sched.claim_ns", 1, claim(sched.Dynamic)},
		{"sched.claim_ns_static", 1, claim(sched.Static)},
		{"sched.claim_ns_guided", 1, claim(sched.Guided)},
		{"sched.spawn_us", 1e-3, func() (float64, error) {
			return 1, sched.RunWavesE(ctx, sched.Dynamic, p, sched.SingleWave(p), noop)
		}},
		{"sched.barrier_ns", 1, func() (float64, error) {
			return barrierWaves - 1, sched.RunWavesE(ctx, sched.Dynamic, p, barriers, noop)
		}},
		{"exec.checkout_ns", 1, func() (float64, error) {
			const batch = 64
			for i := 0; i < batch; i++ {
				checkout(eng, a.Cols, p)
			}
			return batch, nil
		}},
		{"exec.plan_lookup_ns", 1, func() (float64, error) {
			if _, err := eng.Plan(key, build); err != nil {
				return 0, err
			}
			const batch = 256
			for i := 0; i < batch; i++ {
				if _, ok := eng.PlanLookup(key); !ok {
					return 0, fmt.Errorf("plan cache lost the probe's key")
				}
			}
			return batch, nil
		}},
		{"exec.plan_store_ns", 1, func() (float64, error) {
			const batch = 64
			for i := 0; i < batch; i++ {
				storeKey.Tiles--
				if _, err := eng.Plan(storeKey, build); err != nil {
					return 0, err
				}
			}
			return batch, nil
		}},
		{"core.ewise_ns_per_nnz", 1, func() (float64, error) {
			_, err := core.EWiseAdd[float64](ring{}, a, pattern)
			return nnz, err
		}},
		{"spgemm.call_us", 1e-3, func() (float64, error) {
			_, err := spgemm.MxM(small, small, small, facade)
			return 1, err
		}},
		{"obs.span_ns", 1, func() (float64, error) {
			const batch = 256
			for i := 0; i < batch; i++ {
				rec.Span(obs.PhaseExecKernel)()
			}
			return batch, nil
		}},
		{"telemetry.hist_record_ns", 1, func() (float64, error) {
			const batch = 1024
			for i := int64(0); i < batch; i++ {
				hist.Record(i << 8)
			}
			return batch, nil
		}},
	}, nil
}

// checkout is one warm workspace round trip, released the way the
// kernels release theirs.
func checkout(eng *exec.Engine, cols, workers int) {
	ws := exec.Masked[float64](eng, ring{}, accum.HashKind, 32, cols, 64, workers, probeTiles)
	defer ws.Release()
}

// smallOperand is a 16 × 16 ring with chords: a product small enough
// that spgemm.MxM's time is its fixed per-call path.
func smallOperand() *spgemm.Matrix {
	var edges [][2]int
	for i := 0; i < 16; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 16}, [2]int{i, (i + 5) % 16})
	}
	m, err := spgemm.FromEdges(16, edges)
	if err != nil {
		panic(err) // the edges above are in range by construction
	}
	return m
}

// accumProbes replays the masked product's accumulator protocol over
// the operand's real rows — BeginRow, LoadMask(A[i,:]), UpdateMasked for
// every term of A[i,:]·A, Gather — on a hash and a dense accumulator
// with 32-bit markers. The clock is read between the update and the
// gather half of each row; a call walks the operand's rows from the top
// until it has made accumUpdates updates.
func accumProbes(a *matrix, calls int, tr *tracer, parent int, l map[string]float64) {
	var rowCap int64
	for i := 0; i < a.Rows; i++ {
		rowCap = max(rowCap, a.RowNNZ(i))
	}
	var cols []sparse.Index
	var vals []float64
	replay := func(acc accum.Accumulator[float64]) (updateNs, gatherNs float64) {
		var updates, entries int64
		var upd, gat time.Duration
		for i := 0; i < a.Rows && updates < accumUpdates; i++ {
			mask := a.RowCols(i)
			t0 := time.Now()
			acc.BeginRow()
			acc.LoadMask(mask)
			for _, k := range mask {
				bc, bv := a.Row(int(k))
				for q, j := range bc {
					acc.UpdateMasked(j, bv[q])
				}
				updates += int64(len(bc))
			}
			t1 := time.Now()
			cols, vals = acc.Gather(mask, cols[:0], vals[:0])
			gat += time.Since(t1)
			upd += t1.Sub(t0)
			entries += int64(len(mask))
		}
		return ratio(float64(upd.Nanoseconds()), float64(updates)),
			ratio(float64(gat.Nanoseconds()), float64(entries))
	}
	hash := accum.New[float64](accum.HashKind, ring{}, a.Cols, rowCap, 32)
	dense := accum.New[float64](accum.DenseKind, ring{}, a.Cols, rowCap, 32)
	var hashUpd, hashGat, denseUpd []float64
	for i := 0; i < calls; i++ {
		id := tr.begin("accum.hash_replay", "accum", parent, 0)
		u, g := replay(hash)
		tr.end(id)
		hashUpd, hashGat = append(hashUpd, u), append(hashGat, g)
		id = tr.begin("accum.dense_replay", "accum", parent, 0)
		u, _ = replay(dense)
		tr.end(id)
		denseUpd = append(denseUpd, u)
	}
	l["accum.hash_update_ns"] = median(hashUpd)
	l["accum.gather_ns_per_entry"] = median(hashGat)
	l["accum.dense_update_ns"] = median(denseUpd)
}
