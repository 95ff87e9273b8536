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
// formulation — the mask's sense, a chained second product, and what
// happens to each gathered row. Every entry point of the family
// (MaskedSpGEMM, MaskedSpGEMMInstrumented, MaskedSpGEMMSelect,
// MaskedSpGEMMStream, MaskedSpGEMMComp and FusedMaskedSpGEMM) is its
// argument checks plus one of these.
type product[T sparse.Number, S semiring.Semiring[T]] struct {
	sr      S
	m, a, b *sparse.CSR[T]
	cfg     Config

	// comp complements the mask: C = ¬M ⊙ (A × B), on dense scratch.
	comp bool
	// m2 and c chain a second product onto the first:
	// D = M2 ⊙ ((M ⊙ (A × B)) × C), the intermediate never assembled.
	m2, c *sparse.CSR[T]
	// sink, when non-nil, receives every gathered row (see rowSink).
	sink rowSink[T]
	// dst, when non-nil, lends the assembled result its storage (the
	// …Into entry points).
	dst *sparse.CSR[T]
	// stream marks a sink that consumes its rows: workers stage one row
	// at a time and nothing is assembled.
	stream bool
	// marker is the run's own entry in the stats/v1 fused block.
	marker obs.FusedCounters
	// wrap, when non-nil, decorates each worker's accumulator for this
	// run only (the instrumented entry point's operation counters).
	wrap func(accum.Accumulator[T]) accum.Accumulator[T]
}

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
	if p.c != nil && (p.b.Cols != p.c.Rows || p.m2.Rows != p.a.Rows || p.m2.Cols != p.c.Cols) {
		return fmt.Errorf("%w: chained onto M1 %dx%d: M2 %dx%d, C %dx%d",
			sparse.ErrShape, p.m.Rows, p.m.Cols, p.m2.Rows, p.m2.Cols, p.c.Rows, p.c.Cols)
	}
	return nil
}

// Prepare is the eager half of a product that will be repeated: it
// validates the configuration and the shapes of C = M ⊙ (A × B),
// observes cfg.Context, and resolves the plan into cfg.Engine's cache,
// so a caller learns of ErrConfig, ErrShape and ErrCanceled before its
// first run and that run starts from a plan-cache hit. A product below
// the tile crossover is checked and nothing more: its one-tile plan is
// never cached (planFor), so each run rebuilds it and there is nothing
// to build ahead. The plan spans land in a scope of their own: folded
// into the recorder's totals, not counted as a run. It returns the
// plan's tile count (0 for an empty product).
func Prepare[T sparse.Number](m, a, b *sparse.CSR[T], cfg Config) (tiles int, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if err := checkShapes(m, a, b); err != nil {
		return 0, err
	}
	ctx := cfg.Context
	// A small plan builds serially and never reaches the scheduler's
	// cancellation check.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, wrapRunErr(err)
		}
	}
	if a.Rows == 0 {
		return 0, nil
	}
	if belowTileCrossover(m, a, b, nil, nil) {
		return 1, nil
	}
	scope := cfg.Recorder.StartRun()
	defer scope.End()
	plan, err := planFor(ctx, cfg, sched.Workers(cfg.Workers), m, a, b, nil, nil, true, scope)
	if err != nil {
		return 0, wrapRunErr(err)
	}
	return len(plan.Tiles), nil
}

// run is the run protocol of the masked family, written once:
//
//  1. validate the configuration and shapes; an empty operand returns an
//     empty result;
//  2. open the run's stats scope;
//  3. resolve the plan — the planner may answer "one tile" (planFor) —
//     plus, for a chain, the second stage's accumulator row bound, and
//     clamp the workers to the plan's tiles;
//  4. check the workspace(s) out, under the one deferred release that
//     quarantines them unless the run reaches its clean exit;
//  5. arm the accumulator chaos seam and snapshot the accumulator stats;
//  6. run the tile loop on the scheduler under the exec.kernel span;
//  7. assemble the staged tiles under the exec.assemble span, into the
//     caller's lent storage when there is one, unless the sink consumed
//     the rows;
//  8. record the accumulator, pool and fused deltas and mark the run
//     clean.
//
// ctx cancels the run between tile claims and plan blocks; nil runs to
// completion.
func (p *product[T, S]) run(ctx context.Context) (*sparse.CSR[T], error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	cfg := p.cfg
	chain := p.c != nil
	rows, cols := p.a.Rows, p.b.Cols
	if chain {
		cols = p.c.Cols
	}
	if rows == 0 {
		return assembleE[T](ctx, p.dst, rows, cols, nil, nil, 1)
	}

	scope := cfg.Recorder.StartRun()
	defer scope.End()
	poolPrior := cfg.Engine.Stats()
	pw := sched.Workers(cfg.Workers)
	plan, err := planFor(ctx, cfg, pw, p.m, p.a, p.b, p.m2, p.c, !p.comp, scope)
	var plan2 exec.Plan
	if err == nil && chain {
		plan2, err = chainRowCap(ctx, cfg, pw, p.m2, p.c, scope)
	}
	if err != nil {
		return nil, wrapRunErr(err)
	}
	tiles := plan.Tiles
	workers := cfg.runWorkers(len(tiles))

	// The workspace carries the per-worker accumulators (§III-C sizing:
	// masked spaces hold at most max_i nnz(M[i,:]) entries per row; the
	// vanilla bound is folded into plan.RowCap) or dense scratch, and the
	// staging buffers: one per tile when the rows are assembled, one per
	// worker when a sink or a second stage consumes them. A chain's
	// second stage has its own accumulators and the per-tile staging of
	// the final output.
	//
	// Poison-on-error: a run that fails after checkout (panic, cancel,
	// injected fault) may leave accumulators or staging mid-mutation, so
	// the workspaces are quarantined instead of pooled. The flag flips
	// only on the fully-successful exit, so error returns and panic
	// unwinding take the same quarantine path.
	var ws, ws2 *exec.Workspace[T, S]
	clean := false
	defer func() {
		if !clean {
			ws.Poison()
			ws2.Poison()
		}
		ws2.Release()
		ws.Release()
	}()
	staging := len(tiles)
	if p.stream || chain {
		staging = workers
	}
	var accs []accum.Accumulator[T]
	if p.comp {
		ws = exec.Dense[T, S](cfg.Engine, p.sr, p.b.Cols, workers, staging)
	} else {
		if l := accumulatorFor[T](cfg, p.b.Cols, plan); l.Window > 0 {
			ws = exec.MaskedWindow[T, S](cfg.Engine, p.sr, cfg.MarkerBits, l.Window, l.RowCap, workers, staging)
		} else {
			ws = exec.Masked[T, S](cfg.Engine, p.sr, l.Kind, cfg.MarkerBits, p.b.Cols, l.RowCap, workers, staging)
		}
		accs = ws.Accs[:workers]
	}
	outs := ws.Outs
	var chains []chainSink[T, S]
	if chain {
		if l := accumulatorFor[T](cfg, p.c.Cols, plan2); l.Window > 0 {
			ws2 = exec.MaskedWindow[T, S](cfg.Engine, p.sr, cfg.MarkerBits, l.Window, l.RowCap, workers, len(tiles))
		} else {
			ws2 = exec.Masked[T, S](cfg.Engine, p.sr, l.Kind, cfg.MarkerBits, p.c.Cols, l.RowCap, workers, len(tiles))
		}
		outs = ws2.Outs
		chains = newChainSinks(p, ws2.Accs[:workers])
		// One slice over both stages' accumulators, so the chaos seam and
		// the stats deltas below cover the whole chain.
		accs = append(accs[:workers:workers], ws2.Accs[:workers]...)
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
	prior := snapshotAccumStats(accs, scope)

	fcs, err := p.runTiles(ctx, scope, workers, tiles, accs, ws, outs, chains)
	if err != nil {
		return nil, wrapRunErr(err)
	}

	var c *sparse.CSR[T]
	if !p.stream {
		err = spanned(ctx, scope, obs.PhaseExecAssemble, func() (err error) {
			c, err = assembleE(ctx, p.dst, rows, cols, tiles, outs[:len(tiles)], pw)
			return err
		})
		if err != nil {
			return nil, wrapRunErr(err)
		}
	}
	recordAccumDeltas(accs, prior, scope)
	recordPoolDelta(cfg, poolPrior, scope)
	if fcs != nil {
		scope.AddFused(p.marker)
		for i := range fcs {
			scope.AddFused(fcs[i])
		}
	}
	clean = true
	return c, nil
}

// runTiles is the protocol's kernel step: the tile loop dispatched over
// the scheduler under the exec.kernel span, with the per-tile
// accounting around it. ws holds the first (or only) product's dense
// scratch and per-worker staging; outs is the per-tile staging of the
// final output (per-worker for a streaming sink). It returns the
// per-worker fused-counter blocks, nil unless the scope records them.
//
// Everything the tile closure captures is a parameter or assigned once,
// so the closure holds it by value and is the step's only allocation.
func (p *product[T, S]) runTiles(
	ctx context.Context, scope *obs.RunScope, workers int, tiles []tiling.Tile,
	accs []accum.Accumulator[T], ws *exec.Workspace[T, S], outs []exec.TileBuf[T],
	chains []chainSink[T, S],
) ([]obs.FusedCounters, error) {
	cfg := p.cfg
	// A one-tile run walks its live rows; a chain keeps its M2 filter.
	var rows []sparse.Index
	if len(tiles) == 1 && chains == nil {
		ws.ScratchCols = p.liveRows(tiles[0], ws.ScratchCols)
		rows = ws.ScratchCols
	}
	k := kernel[T, S]{
		sr: p.sr, m: p.m, a: p.a, b: p.b,
		iter: cfg.Iteration, kappa: cfg.Kappa, inj: cfg.chaosInjector(),
		comp: p.comp, live: p.m2, rows: rows,
	}
	runSink, perRow, budget := p.sink, p.stream, fuseTileBudget
	// slots and fcs are nil with observability off: the tile closure then
	// pays two nil checks and the run allocates neither.
	slots := scope.WorkerSlots(workers)
	fcs := fusedSlots(scope, workers, runSink != nil || chains != nil)
	// Tile-batch progress events for the flight recorder: every worker
	// emits one event per stride tiles (~32 per run across workers), so a
	// stall dump shows how far the tile loop got without flooding the
	// ring on large runs.
	stride := max(int64(len(tiles)/32), 1)
	err := spanned(ctx, scope, obs.PhaseExecKernel, func() error {
		// A flat bag of tiles is the single-wave plan of the wave executor.
		return sched.RunWavesOpts(ctx, cfg.Schedule, workers, sched.SingleWave(len(tiles)), runOpts(cfg, nil), func(worker, t int) {
			var wc *obs.WorkerCounters
			var endRegion func()
			if slots != nil {
				endRegion = scope.TileRegion(ctx)
				wc = &slots[worker]
				if n := wc.Tiles.Add(1); n%stride == 0 {
					scope.Event(obs.EventTileBatch, obs.PhaseExecKernel, int64(t), n)
				}
			}
			tile := tiles[t]
			sink := runSink
			var gathered, kept int64
			switch {
			case chains != nil:
				cs := &chains[worker]
				sink = cs
				gathered, kept = runTileFused(k, cs, accs[worker], tile, &ws.Outs[worker], &outs[t], budget, wc)
			case k.comp:
				gathered, kept = runTile(k, nil, &ws.Dense[worker], tile, &outs[t], false, sink, wc)
			default:
				slot := t
				if perRow {
					slot = worker
				}
				gathered, kept = runTile(k, accs[worker], nil, tile, &outs[slot], perRow, sink, wc)
			}
			if wc != nil {
				wc.Rows.Add(int64(tile.Rows()))
				wc.Gathered.Add(kept)
			}
			if fcs != nil {
				sink.account(&fcs[worker], gathered, kept)
			}
			if endRegion != nil {
				endRegion()
			}
		})
	})
	return fcs, err
}

// fusedSlots returns per-worker fused-counter blocks for a run that has
// a sink or a second stage to account for — nil otherwise, and nil when
// the scope is disabled, so the uninstrumented path allocates nothing.
func fusedSlots(scope *obs.RunScope, workers int, fused bool) []obs.FusedCounters {
	if !fused || !scope.Enabled() {
		return nil
	}
	return make([]obs.FusedCounters, workers)
}
