package exec

import (
	"errors"
	"reflect"

	"maskedspgemm/internal/sparse"
)

// Tile staging is pooled apart from the workspaces that carry it. A
// workspace's pool key separates what cannot substitute — accumulator
// kind, marker width, column and row-capacity classes — but its staging
// (one TileBuf per tile, each grown to the largest tile slice it has
// held) depends on none of them. Pooled with the workspace, every
// product whose accumulators land in a bucket of their own pinned a
// staging set of its own; pooled per value type, a change of
// accumulator kind or a switch between graphs reuses one set.
//
// A staging set follows its workspace's rules: it is checked out with
// the workspace (Masked, MaskedWindow), returned by its Release, and dropped
// with it when the workspace is poisoned. Its lookups are not counted
// in PoolStats, whose checkouts are workspace checkouts; growing a
// reused set counts as a resize, as growing a workspace does.

// stagingSet is one pooled set of tile staging buffers.
type stagingSet[T sparse.Number] struct {
	outs []TileBuf[T]
	// bound marks a set checked out by a workspace.
	bound bool
}

// stagingType is the staging-pool key of one value type.
func stagingType[T sparse.Number]() reflect.Type {
	return reflect.TypeOf((*stagingSet[T])(nil))
}

// checkoutStaging binds a staging set of at least tiles buffers to ws
// and points ws.Outs at it: the most recently returned idle set of the
// value type, or a fresh one. A nil engine builds a fresh set; a
// checkout of no tiles binds none.
//
//spgemm:hotpath
func (ws *Workspace[T, S]) checkoutStaging(tiles int) {
	if tiles <= 0 {
		return
	}
	var st *stagingSet[T]
	if ws.engine != nil {
		if got := ws.engine.getStaging(stagingType[T]()); got != nil {
			st = got.(*stagingSet[T])
		}
	}
	reused := st != nil
	if !reused {
		//lint:ignore hotpathalloc miss path: constructs the staging set the pool will recycle
		st = &stagingSet[T]{}
	}
	st.bound = true
	if tiles > len(st.outs) {
		if reused {
			ws.engine.resizes.Add(1)
		}
		//lint:ignore hotpathalloc amortized: grows once per tile-count high-water mark
		outs := make([]TileBuf[T], tiles)
		copy(outs, st.outs)
		st.outs = outs
	}
	ws.stage = st
	ws.Outs = st.outs
}

// releaseStaging unbinds ws's staging set and, unless the workspace is
// poisoned, returns it to the engine's staging pool.
//
//spgemm:hotpath
func (ws *Workspace[T, S]) releaseStaging(e *Engine) {
	st := ws.stage
	ws.stage, ws.Outs = nil, nil
	if st == nil || ws.poisoned {
		return
	}
	st.bound = false
	e.putStaging(stagingType[T](), st)
}

// getStaging serves the most recently returned idle staging set of the
// type typ; nil when there is none.
//
//spgemm:hotpath
func (e *Engine) getStaging(typ reflect.Type) any {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.stagings[typ]
	if b == nil || len(b.hot) == 0 {
		return nil
	}
	e.stagingIdle--
	return b.pop()
}

// putStaging returns a staging set to its type's idle list under the
// engine's idle cap, dropping the oldest idle set when the cap is
// exceeded.
//
//spgemm:hotpath
func (e *Engine) putStaging(typ reflect.Type, st any) {
	e.mu.Lock()
	b := e.stagings[typ]
	if b == nil {
		//lint:ignore hotpathalloc first staging set of a value type creates its bucket once
		b = &bucket{}
		e.stagings[typ] = b
	}
	e.clock++
	b.hot = append(b.hot, idleWS{ws: st, stamp: e.clock})
	e.stagingIdle++
	for e.stagingIdle > e.maxIdle() && dropOldest(e.stagings) {
		e.stagingIdle--
	}
	e.mu.Unlock()
}

// IdleStaging reports how many tile staging sets the engine holds idle
// — a gauge beside Idle. Nil engines report 0.
func (e *Engine) IdleStaging() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stagingIdle
}

// poolCheck validates one pooled staging set: it must be unbound.
func (st *stagingSet[T]) poolCheck() error {
	if st.bound {
		return errors.New("pooled staging set still bound to a workspace")
	}
	return nil
}
