package core

import (
	"context"
	"fmt"
	"unsafe"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/obs"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// product describes one run of the masked family to the shared run
// protocol: the operands and configuration, plus what distinguishes the
// formulation — what happens to each gathered row. Every entry point of
// the family (MaskedSpGEMM, MaskedSpGEMMInstrumented,
// MaskedSpGEMMSelectInto and MaskedSpGEMMStreamLower) is its argument
// checks plus one of these.
type product[T sparse.Number, S semiring.Semiring[T]] struct {
	sr      S
	m, a, b *sparse.CSR[T]
	cfg     Config

	// sink, when non-nil, receives every gathered row (see rowSink).
	sink rowSink[T]
	// dst, when non-nil, lends the assembled result its storage (the
	// …Into entry points).
	dst *sparse.CSR[T]
	// stream marks a sink that consumes its rows: workers stage one row
	// at a time and nothing is assembled.
	stream bool
	// lower reads m = a = b as their strictly lower view (kernel.lower);
	// symmetric states that a is symmetric in pattern and values, which
	// lets the plan's verdict route the view's rows to rowDot (merge).
	lower, symmetric, merge bool
	// wrap, when non-nil, decorates each worker's accumulator for this
	// run only (the instrumented entry point's operation counters).
	wrap func(accum.Accumulator[T]) accum.Accumulator[T]
}

// verdictOverride, when set, replaces every lower view's priced
// verdict, so tests run both row kernels on one input
// (export_test.go). Not a knob.
var verdictOverride *bool

func newProduct[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config,
) product[T, S] {
	return product[T, S]{sr: sr, m: m, a: a, b: b, cfg: cfg}
}

// sharesStorage reports whether dst and m share a header or any array.
func sharesStorage[T sparse.Number](dst, m *sparse.CSR[T]) bool {
	return dst == m || overlaps(dst.RowPtr, m.RowPtr) ||
		overlaps(dst.ColIdx, m.ColIdx) || overlaps(dst.Val, m.Val)
}

// overlaps reports whether the storage of x and y, up to their
// capacities, has any element in common.
func overlaps[E any](x, y []E) bool {
	if cap(x) == 0 || cap(y) == 0 {
		return false
	}
	var e E
	size := unsafe.Sizeof(e)
	x0 := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	y0 := uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	return x0 < y0+uintptr(cap(y))*size && y0 < x0+uintptr(cap(x))*size
}

// checkShapes verifies the operand shapes of M ⊙ (A × B): A is m×k, B is
// k×n, M is m×n.
func checkShapes[T sparse.Number](m, a, b *sparse.CSR[T]) error {
	if a.Cols != b.Rows || m.Rows != a.Rows || m.Cols != b.Cols {
		return fmt.Errorf("%w: M %dx%d, A %dx%d, B %dx%d",
			sparse.ErrShape, m.Rows, m.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return nil
}

// check validates the configuration and the operand shapes.
func (p *product[T, S]) check() error {
	if err := p.cfg.Validate(); err != nil {
		return err
	}
	if err := checkShapes(p.m, p.a, p.b); err != nil {
		return err
	}
	if p.dst != nil && (sharesStorage(p.dst, p.m) || sharesStorage(p.dst, p.a) || sharesStorage(p.dst, p.b)) {
		return errConfig("the result's storage is shared with an operand")
	}
	return nil
}

// run is the run protocol of the masked family, written once:
//
//  1. validate the configuration and shapes; an empty operand returns an
//     empty result;
//  2. open the run's stats scope;
//  3. resolve the plan — the planner may answer "one tile" (planFor) —
//     and clamp the workers to the plan's tiles;
//  4. check the workspace out, under the one deferred release that
//     quarantines it unless the run reaches its clean exit;
//  5. arm the accumulator chaos seam and snapshot the accumulator stats;
//  6. run the tile loop on the scheduler under the exec.kernel span;
//  7. assemble the staged tiles under the exec.assemble span, into the
//     caller's lent storage when there is one, unless the sink consumed
//     the rows;
//  8. record the accumulator and pool deltas and mark the run clean.
//
// ctx cancels the run between tile claims and plan blocks; nil runs to
// completion.
func (p *product[T, S]) run(ctx context.Context) (*sparse.CSR[T], error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	cfg := p.cfg
	rows, cols := p.a.Rows, p.b.Cols
	if rows == 0 {
		return assembleE[T](ctx, p.dst, rows, cols, nil, nil, 1)
	}

	scope := cfg.Recorder.StartRun()
	defer scope.End()
	poolPrior := cfg.Engine.Stats()
	pw := sched.Workers(cfg.Workers)
	plan, err := planFor(ctx, cfg, pw, p.m, p.a, p.b, p.lower, scope)
	if err != nil {
		return nil, WrapRunErr(err)
	}
	p.merge = p.symmetric && plan.MergeView
	if verdictOverride != nil {
		p.merge = p.symmetric && *verdictOverride
	}
	ntiles := max(len(plan.Tiles), 1) // nil Tiles: the one-tile plan
	workers := cfg.runWorkers(ntiles)

	// The workspace carries the per-worker accumulators (§III-C sizing:
	// masked spaces hold at most max_i nnz(M[i,:]) entries per row; the
	// vanilla bound is folded into plan.RowCap), and the staging
	// buffers: one per tile when the rows are assembled, one per worker
	// when a streaming sink consumes them.
	//
	// Poison-on-error: a run that fails after checkout (panic, cancel,
	// injected fault) may leave accumulators or staging mid-mutation, so
	// the workspace is quarantined instead of pooled. The flag flips
	// only on the fully-successful exit, so error returns and panic
	// unwinding take the same quarantine path.
	var ws *exec.Workspace[T, S]
	clean := false
	defer func() {
		if !clean {
			ws.Poison()
		}
		ws.Release()
	}()
	staging := ntiles
	if p.stream {
		staging = workers
	}
	if l := accumulatorFor[T](cfg, p.b.Cols, plan); l.Window > 0 {
		ws = exec.MaskedWindow[T, S](cfg.Engine, p.sr, cfg.MarkerBits, l.Window, l.RowCap, workers, staging)
	} else {
		ws = exec.Masked[T, S](cfg.Engine, p.sr, l.Kind, cfg.MarkerBits, p.b.Cols, l.RowCap, workers, staging)
	}
	accs := ws.Accs[:workers]
	if p.stream {
		// A streaming worker gathers one row at a time into its own
		// buffer. Sized for the widest output row (output ⊆ mask, so
		// plan.RowCap bounds it), no gather grows the buffer, whichever
		// tiles its worker happens to claim: a warm run allocates the
		// same whatever the schedule.
		for w := range workers {
			stage(&ws.Outs[w], 0, plan.RowCap)
		}
	}
	tiles := plan.Tiles
	if tiles == nil {
		ws.OneTile[0] = tiling.Tile{Lo: 0, Hi: rows}
		tiles = ws.OneTile[:]
	}
	if cfg.Resilience != nil {
		defer armAccumChaos(cfg, accs)()
	}
	if p.wrap != nil {
		// The decorators are per run by design (they are drained after the
		// run); never let them leak into the pooled workspace.
		wrapped := make([]accum.Accumulator[T], len(accs))
		for w := range wrapped {
			wrapped[w] = p.wrap(accs[w])
		}
		accs = wrapped
	}
	// The accumulators persist across runs, so deltas against a per-run
	// snapshot keep each run's counts exact.
	prior := accumTotal(accs, scope)

	if err := p.runTiles(ctx, scope, workers, tiles, accs, ws); err != nil {
		return nil, WrapRunErr(err)
	}

	var c *sparse.CSR[T]
	if !p.stream {
		t0 := scope.Now()
		c, err = assembleE(ctx, p.dst, rows, cols, tiles, ws.Outs[:len(tiles)], pw)
		scope.Span(obs.PhaseExecAssemble, t0)
		if err != nil {
			return nil, WrapRunErr(err)
		}
	}
	recordAccumDelta(accs, prior, scope)
	recordPoolDelta(cfg, poolPrior, scope)
	clean = true
	return c, nil
}

// runTiles is the protocol's kernel step: the tile loop dispatched over
// the scheduler under the exec.kernel span, with the per-tile
// accounting around it. ws holds the staging: per
// tile, or per worker for a streaming sink.
//
// Everything the tile closure captures is a parameter or assigned once,
// so the closure holds it by value and is the step's only allocation.
func (p *product[T, S]) runTiles(
	ctx context.Context, scope *obs.RunScope, workers int, tiles []tiling.Tile,
	accs []accum.Accumulator[T], ws *exec.Workspace[T, S],
) error {
	cfg := p.cfg
	k := kernel[T, S]{
		sr: p.sr, m: p.m, a: p.a, b: p.b,
		iter: cfg.Iteration, kappa: cfg.Kappa, inj: cfg.chaosInjector(),
		lower: p.lower, merge: p.merge,
	}
	sink, perRow := p.sink, p.stream
	// slots is nil with observability off: the tile closure then pays a
	// nil check. On, it is the pooled scope's scratch.
	slots := scope.WorkerSlots(workers)
	t0 := scope.Now()
	// A flat bag of tiles is the single-wave plan of the wave executor.
	err := sched.RunWavesOpts(ctx, cfg.Schedule, workers, sched.SingleWave(len(tiles)), runOpts(cfg, nil), func(worker, t int) {
		var wc *obs.WorkerCounters
		var endRegion func()
		if slots != nil {
			endRegion = scope.TileRegion(ctx)
			wc = &slots[worker]
			wc.Tiles.Add(1)
		}
		tile := tiles[t]
		slot := t
		if perRow {
			slot = worker
		}
		kept := runTile(k, accs[worker], tile, &ws.Outs[slot], perRow, sink, wc)
		if wc != nil {
			wc.Rows.Add(int64(tile.Rows()))
			wc.Gathered.Add(kept)
		}
		if endRegion != nil {
			endRegion()
		}
	})
	scope.Span(obs.PhaseExecKernel, t0)
	return err
}
