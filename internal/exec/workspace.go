package exec

import (
	"math/bits"
	"reflect"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Workspace is the operand-independent half of a masked-SpGEMM
// execution: every mutable buffer a run needs, none of the operand
// structure. It is checked out of an Engine (Masked or Dense), used for
// one run — or held across the iterations of an algorithm loop — and
// returned with Release. A workspace checked out of a nil Engine is an
// ordinary heap object whose Release is a no-op, so every kernel can be
// written against the checkout/release protocol unconditionally.
//
// Workspaces are sized by ceil-log2 classes of the column dimension and
// the accumulator row capacity, so a pooled instance serves any request
// of its class or smaller; growth (more workers, more tiles, a larger
// scratch dimension) happens in place and is counted as a resize.
//
// Invariant for pooled reuse: accumulators carry marker state that makes
// anything stale invisible (or, for the explicit-reset kinds, are left
// clean after each row), and DenseScratch users must reset the slots
// they touched (via Touched) before the workspace is released. Kernels
// in internal/core maintain this; it is what makes a recycled workspace
// indistinguishable from a fresh one.
type Workspace[T sparse.Number, S semiring.Semiring[T]] struct {
	engine *Engine
	key    wsKey
	// poisoned marks a workspace whose clean-reuse invariant can no
	// longer be trusted — its run panicked or was cancelled mid-tile.
	// Release drops a poisoned workspace (counted as a quarantine)
	// instead of returning it to the pool.
	poisoned bool

	sr         S
	kind       accum.Kind
	markerBits int
	cols       int   // size-class capacity of the column dimension (window: its width)
	rowCap     int64 // size-class bound on accumulator row entries (window: the spill table's, 0 = none)

	// Accs holds one accumulator per worker; Accs[w] is owned by worker
	// w for the duration of a run.
	Accs []accum.Accumulator[T]
	// Outs holds the per-tile output staging buffers; slice it to the
	// run's tile count. They belong to the staging set bound at checkout
	// and pooled apart from the workspace (staging.go).
	Outs  []TileBuf[T]
	stage *stagingSet[T]
	// Dense holds one dense column-dimension scratch block per worker
	// (complement, vector and masked-solve kernels).
	Dense []DenseScratch[T]

	// ScratchCols is index scratch for the run holding the workspace (a
	// one-tile run's live rows).
	ScratchCols []sparse.Index
}

// TileBuf stages one tile's slice of the result before assembly.
type TileBuf[T sparse.Number] struct {
	RowNNZ []int32
	Cols   []sparse.Index
	Vals   []T
}

// DenseScratch is one worker's dense column-dimension scratch: a value
// vector and a state byte per column, and a touched list for sparse
// reset. Vals and State hold at least as many entries as the column
// count the workspace was checked out for (its class size). Users must
// leave Vals/State clean (reset every slot recorded in Touched) before
// the owning workspace is released.
type DenseScratch[T sparse.Number] struct {
	Vals    []T
	State   []uint8
	Touched []sparse.Index
}

// sizeClass is the ceil-log2 bucket of n: the smallest c with 1<<c ≥ n.
func sizeClass(n int) uint8 {
	if n <= 1 {
		return 0
	}
	return uint8(bits.Len(uint(n - 1)))
}

func sizeClass64(n int64) uint8 {
	if n <= 1 {
		return 0
	}
	return uint8(bits.Len64(uint64(n - 1)))
}

// wsType is the pool-key type token for one generic instantiation. The
// nil-pointer TypeOf is allocation-free: the type descriptor already
// exists and pointers need no boxing.
func wsType[T sparse.Number, S semiring.Semiring[T]]() reflect.Type {
	return reflect.TypeOf((*Workspace[T, S])(nil))
}

// maskedKey buckets a masked-kernel checkout. Dimensions an accumulator
// kind ignores are normalized out of the key so e.g. hash workspaces
// pool across column dimensions and dense ones across row capacities.
func maskedKey[T sparse.Number, S semiring.Semiring[T]](
	kind accum.Kind, markerBits, cols int, rowCap int64,
) wsKey {
	cc := sizeClass(cols)
	rc := sizeClass64(rowCap)
	mb := uint8(markerBits)
	switch kind {
	case accum.DenseKind:
		rc = 0 // dense accumulators ignore the row capacity
	case accum.DenseExplicitKind:
		rc, mb = 0, 0 // ... and explicit reset also ignores marker width
	case accum.HashKind:
		cc = 0 // hash accumulators ignore the column dimension
	case accum.HashExplicitKind:
		cc, mb = 0, 0
	}
	return wsKey{
		typ:        wsType[T, S](),
		class:      classMasked,
		kind:       uint8(kind),
		markerBits: mb,
		colsClass:  cc,
		capClass:   rc,
	}
}

// checkout pulls a workspace for key from the pool, or nil on a miss
// (and always nil for a nil engine).
func checkout[T sparse.Number, S semiring.Semiring[T]](e *Engine, key wsKey) *Workspace[T, S] {
	if e == nil {
		return nil
	}
	got := e.get(key)
	if got == nil {
		return nil
	}
	return got.(*Workspace[T, S])
}

// Masked checks out a workspace for a masked-SpGEMM run: one
// accumulator per worker (kind/markerBits, sized for cols columns and
// rowCap row entries) and a staging set of one output buffer per tile.
// A nil engine constructs an unpooled workspace.
//
//spgemm:hotpath
func Masked[T sparse.Number, S semiring.Semiring[T]](
	e *Engine, sr S, kind accum.Kind, markerBits, cols int, rowCap int64,
	workers, tiles int,
) *Workspace[T, S] {
	return masked(e, sr, maskedKey[T, S](kind, markerBits, cols, rowCap), kind, markerBits, workers, tiles)
}

// MaskedWindow is Masked for dense accumulators over a window of window
// columns, each with a spill table for spillCap entries per row when
// spillCap > 0 (accum.NewWindow). Its key is the dense one of the window
// class with capClass 1, or 2 + the spill table's class: full-width
// workspaces (capClass 0) may take an idle window at least as wide, but
// a window never takes a full-width one, nor one that cannot spill.
//
//spgemm:hotpath
func MaskedWindow[T sparse.Number, S semiring.Semiring[T]](
	e *Engine, sr S, markerBits, window int, spillCap int64, workers, tiles int,
) *Workspace[T, S] {
	key := maskedKey[T, S](accum.DenseKind, markerBits, window, 0)
	key.capClass = 1
	if spillCap > 0 {
		key.capClass = 2 + sizeClass64(spillCap)
	}
	return masked(e, sr, key, accum.DenseKind, markerBits, workers, tiles)
}

// masked is the checkout behind Masked and MaskedWindow.
//
//spgemm:hotpath
func masked[T sparse.Number, S semiring.Semiring[T]](
	e *Engine, sr S, key wsKey, kind accum.Kind, markerBits, workers, tiles int,
) *Workspace[T, S] {
	if e != nil {
		//lint:ignore hotpathalloc allocates only when a fault fires, and the checkout dies with it
		chaos.StepHard(e.cfg.Chaos, chaos.WorkspaceCheckout)
	}
	ws := checkout[T, S](e, key)
	fresh := ws == nil
	if fresh {
		//lint:ignore hotpathalloc miss path: constructs the workspace the pool will recycle
		ws = &Workspace[T, S]{
			key:        key,
			sr:         sr,
			kind:       kind,
			markerBits: markerBits,
			cols:       1 << key.colsClass,
			rowCap:     int64(1) << key.capClass,
		}
		if kind == accum.DenseKind && key.capClass > 0 { // a window
			ws.rowCap = int64(1) << key.capClass >> 2 // 0 without a spill table
		}
	}
	ws.engine = e
	ws.sr = sr
	ws.ensureAccs(workers, !fresh)
	ws.checkoutStaging(tiles)
	return ws
}

// Dense checks out a workspace carrying one DenseScratch block per
// worker (value + state vectors over cols columns) and a staging set of
// one output buffer per tile — the shape the complement, sparse-vector
// and masked-solve kernels need. A nil engine constructs an unpooled workspace.
//
//spgemm:hotpath
func Dense[T sparse.Number, S semiring.Semiring[T]](
	e *Engine, sr S, cols, workers, tiles int,
) *Workspace[T, S] {
	key := wsKey{typ: wsType[T, S](), class: classDense, colsClass: sizeClass(cols)}
	if e != nil {
		//lint:ignore hotpathalloc allocates only when a fault fires, and the checkout dies with it
		chaos.StepHard(e.cfg.Chaos, chaos.WorkspaceCheckout)
	}
	ws := checkout[T, S](e, key)
	fresh := ws == nil
	if fresh {
		//lint:ignore hotpathalloc miss path: constructs the workspace the pool will recycle
		ws = &Workspace[T, S]{key: key, sr: sr, cols: 1 << key.colsClass}
	}
	ws.engine = e
	ws.sr = sr
	ws.ensureDense(workers, !fresh)
	ws.checkoutStaging(tiles)
	return ws
}

// Poison marks the workspace as untrusted for pooled reuse: its run
// panicked, was cancelled mid-tile, or otherwise ended before the
// kernels could restore the clean-state invariant. A poisoned
// workspace is quarantined by Release — dropped and counted, never
// returned to the pool. Safe on nil workspaces; idempotent.
func (ws *Workspace[T, S]) Poison() {
	if ws == nil {
		return
	}
	ws.poisoned = true
}

// Poisoned reports whether the workspace has been marked for
// quarantine. Nil workspaces report false.
func (ws *Workspace[T, S]) Poisoned() bool {
	return ws != nil && ws.poisoned
}

// Release returns the workspace and its staging set to its engine's
// pools — unless it has been poisoned, in which case both are
// quarantined: dropped for the garbage collector and counted (once) in
// PoolStats.Quarantines, so dirty state can never serve a later
// checkout. Safe on nil workspaces; a no-op for unpooled (nil-engine)
// checkouts. The caller must not use the workspace after Release.
//
//spgemm:hotpath
func (ws *Workspace[T, S]) Release() {
	if ws == nil || ws.engine == nil {
		return
	}
	e := ws.engine
	if ws.poisoned {
		ws.releaseStaging(e)
		ws.engine = nil
		e.quarantines.Add(1)
		return
	}
	//lint:ignore hotpathalloc allocates only when a fault fires, and the release dies with it
	chaos.StepHard(e.cfg.Chaos, chaos.WorkspaceRelease)
	ws.releaseStaging(e)
	ws.engine = nil
	e.put(ws.key, ws)
}

// ensureAccs grows the per-worker accumulator set to workers entries.
//
//spgemm:hotpath
func (ws *Workspace[T, S]) ensureAccs(workers int, count bool) {
	if workers <= len(ws.Accs) {
		return
	}
	if count && ws.engine != nil {
		ws.engine.resizes.Add(1)
	}
	//lint:ignore hotpathalloc amortized: grows once per worker-count high-water mark
	accs := make([]accum.Accumulator[T], workers)
	copy(accs, ws.Accs)
	for w := len(ws.Accs); w < workers; w++ {
		if ws.kind == accum.DenseKind && ws.key.capClass > 0 {
			accs[w] = accum.NewWindow[T](ws.sr, ws.cols, ws.rowCap, ws.markerBits)
		} else {
			accs[w] = accum.New[T](ws.kind, ws.sr, ws.cols, ws.rowCap, ws.markerBits)
		}
	}
	ws.Accs = accs
}

// ensureDense grows the per-worker dense scratch set to workers blocks,
// each sized to the workspace's column class.
//
//spgemm:hotpath
func (ws *Workspace[T, S]) ensureDense(workers int, count bool) {
	if workers <= len(ws.Dense) {
		return
	}
	if count && ws.engine != nil {
		ws.engine.resizes.Add(1)
	}
	//lint:ignore hotpathalloc amortized: grows once per worker-count high-water mark
	dense := make([]DenseScratch[T], workers)
	copy(dense, ws.Dense)
	for w := len(ws.Dense); w < workers; w++ {
		//lint:ignore hotpathalloc amortized: dense scratch built once per new worker slot
		dense[w] = DenseScratch[T]{
			Vals:    make([]T, ws.cols),          //lint:ignore hotpathalloc amortized: once per new worker slot
			State:   make([]uint8, ws.cols),      //lint:ignore hotpathalloc amortized: once per new worker slot
			Touched: make([]sparse.Index, 0, 64), //lint:ignore hotpathalloc amortized: once per new worker slot
		}
	}
	ws.Dense = dense
}
