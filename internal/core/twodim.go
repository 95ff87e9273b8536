package core

import (
	"sort"

	"maskedspgemm/internal/exec"
	"maskedspgemm/internal/sched"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
	"maskedspgemm/internal/tiling"
)

// MaskedSpGEMM2D is the two-dimensional tiling extension the paper's
// §V-A leaves as future work: the output rows are tiled as in the 1-D
// kernel, and additionally the inner (k) dimension is cut into kPanels
// panels processed panel-major within each row tile. All rows of a tile
// advance through one B panel before the next panel is touched, so the
// panel's B rows stay cache-resident across the whole row tile — the
// locality the row-at-a-time traversal cannot get.
//
// The accumulator is a mask-shaped per-worker scratch: row i's partial
// sums live in a slice parallel to M[i,:]'s columns, updated by binary
// search within the (sorted) mask row. Memory per worker is
// proportional to the largest tile's mask volume, so the working set is
// controlled by the tile size regardless of panel count. Scratch and
// output buffers come from the engine's workspace pool (cfg.Engine) or
// are built per call without one.
//
// Scheduling, tiling strategy, tile count and workers come from cfg;
// the iteration space and accumulator fields are ignored (the 2-D
// traversal fixes both). kPanels ≤ 1 degrades to mask-sorted 1-D.
func MaskedSpGEMM2D[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], cfg Config, kPanels int,
) (*sparse.CSR[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkShapes(m, a, b); err != nil {
		return nil, err
	}
	if a.Rows == 0 {
		return sparse.NewCSR[T](a.Rows, b.Cols, 0), nil
	}
	if kPanels < 1 {
		kPanels = 1
	}
	if kPanels > a.Cols {
		kPanels = a.Cols
	}

	ctx := cfg.Context
	pw := sched.Workers(cfg.Workers)
	scope := cfg.Recorder.StartRun()
	defer scope.End()
	poolPrior := cfg.Engine.Stats()
	plan, err := planFor(ctx, cfg, pw, m, a, b, nil, nil, false, scope)
	if err != nil {
		return nil, wrapRunErr(err)
	}
	tiles := plan.Tiles
	workers := cfg.runWorkers(len(tiles))

	ws := exec.Dense[T, S](cfg.Engine, sr, b.Cols, workers, len(tiles))
	// Poison-on-error: a failed run can leave the dense scratch's
	// state vector mid-reset, so quarantine unless fully successful.
	clean := false
	defer func() {
		if !clean {
			ws.Poison()
		}
		ws.Release()
	}()
	outs := ws.Outs[:len(tiles)]

	// Panel boundaries in the k dimension, uniform cuts of [0, a.Cols),
	// staged in the workspace's column scratch (read-only during the run).
	bounds := ws.ScratchCols
	if cap(bounds) < kPanels+1 {
		bounds = make([]sparse.Index, kPanels+1)
	}
	bounds = bounds[:kPanels+1]
	for p := 0; p <= kPanels; p++ {
		bounds[p] = sparse.Index(a.Cols * p / kPanels)
	}
	ws.ScratchCols = bounds

	if err := schedRun(ctx, cfg, workers, len(tiles), func(worker, t int) {
		runTile2D(sr, m, a, b, tiles[t], bounds, &outs[t], &ws.Dense[worker])
	}); err != nil {
		return nil, wrapRunErr(err)
	}

	c, err := assembleE(ctx, a.Rows, b.Cols, tiles, outs, pw)
	if err != nil {
		return nil, wrapRunErr(err)
	}
	recordPoolDelta(cfg, poolPrior, scope)
	clean = true
	return c, nil
}

// runTile2D computes one row tile panel-major. The worker scratch's
// value/state vectors are mask-shaped for this tile (vals[p]/written[p]
// correspond to mask entry p); the gather loop clears every written
// flag it consumes, restoring the scratch's clean state for the next
// tile and for pooled reuse.
func runTile2D[T sparse.Number, S semiring.Semiring[T]](
	sr S, m, a, b *sparse.CSR[T], tile tiling.Tile,
	bounds []sparse.Index, out *exec.TileBuf[T], sc *exec.DenseScratch[T],
) {
	rows := tile.Rows()
	maskLo := m.RowPtr[tile.Lo]
	maskVol := m.RowPtr[tile.Hi] - maskLo

	vals, written := sc.EnsureSize(int(maskVol))
	// cursor[r] walks row (tile.Lo+r) of A panel by panel; rows are
	// sorted by column, so each panel is a contiguous segment.
	cursor := sc.EnsureCursor(rows)
	for r := 0; r < rows; r++ {
		cursor[r] = a.RowPtr[tile.Lo+r]
	}

	for p := 0; p+1 < len(bounds); p++ {
		panelEnd := bounds[p+1]
		for r := 0; r < rows; r++ {
			i := tile.Lo + r
			maskCols := m.RowCols(i)
			if len(maskCols) == 0 {
				cursor[r] = a.RowPtr[i+1]
				continue
			}
			rowBase := m.RowPtr[i] - maskLo
			rowVals := vals[rowBase : rowBase+int64(len(maskCols))]
			rowWritten := written[rowBase : rowBase+int64(len(maskCols))]

			end := a.RowPtr[i+1]
			for cursor[r] < end && a.ColIdx[cursor[r]] < panelEnd {
				k := a.ColIdx[cursor[r]]
				aik := a.Val[cursor[r]]
				cursor[r]++
				bCols, bVals := b.Row(int(k))
				// Mask-sorted accumulate: each B entry is located within
				// the mask row by binary search.
				lo := 0
				for jj, j := range bCols {
					sub := maskCols[lo:]
					q := sort.Search(len(sub), func(x int) bool { return sub[x] >= j })
					// B rows are sorted too, so the searched prefix can
					// never match again.
					lo += q
					if lo >= len(maskCols) {
						break
					}
					if maskCols[lo] == j {
						x := sr.Times(aik, bVals[jj])
						if rowWritten[lo] != 0 {
							rowVals[lo] = sr.Plus(rowVals[lo], x)
						} else {
							rowWritten[lo] = 1
							rowVals[lo] = x
						}
					}
				}
			}
		}
	}

	// Gather: mask order is already sorted output order. Consuming a
	// written flag clears it, leaving the scratch clean.
	stage(out, rows, maskVol)
	for r := 0; r < rows; r++ {
		i := tile.Lo + r
		maskCols := m.RowCols(i)
		rowBase := m.RowPtr[i] - maskLo
		before := len(out.Cols)
		for p, j := range maskCols {
			if written[rowBase+int64(p)] != 0 {
				written[rowBase+int64(p)] = 0
				out.Cols = append(out.Cols, j)
				out.Vals = append(out.Vals, vals[rowBase+int64(p)])
			}
		}
		out.RowNNZ[r] = int32(len(out.Cols) - before)
	}
}
