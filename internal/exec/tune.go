package exec

import (
	"sync"

	"maskedspgemm/internal/sparse"
)

// TuneKey fingerprints an operand *family* rather than an operand
// identity: ceil-log2 size classes of each operand's rows, columns and
// nnz. Iterative algorithms rebuild their matrices every round — the
// k-truss prune emits a fresh CSR per iteration, BC swaps frontiers —
// so identity-keyed state (like the plan cache's PlanKey) would reset
// adaptive tuning each round. Size-class keying makes rounds with
// similar shape share one tuning cell, which is exactly the granularity
// at which a learned κ transfers: the Eq. 3 trade-off depends on row
// densities, not on which concrete matrix carries them.
type TuneKey struct {
	MRows, MCols, MNNZ uint8
	ARows, ACols, ANNZ uint8
	BRows, BCols, BNNZ uint8
}

// TuneKeyOf fingerprints the operand family of C = M ⊙ (A × B) with the
// same ceil-log2 size classes the workspace pool buckets by. Nil
// operands contribute zero classes.
func TuneKeyOf[T sparse.Number](m, a, b *sparse.CSR[T]) TuneKey {
	var k TuneKey
	if m != nil {
		k.MRows, k.MCols, k.MNNZ = sizeClass(m.Rows), sizeClass(m.Cols), sizeClass64(m.NNZ())
	}
	if a != nil {
		k.ARows, k.ACols, k.ANNZ = sizeClass(a.Rows), sizeClass(a.Cols), sizeClass64(a.NNZ())
	}
	if b != nil {
		k.BRows, k.BCols, k.BNNZ = sizeClass(b.Rows), sizeClass(b.Cols), sizeClass64(b.NNZ())
	}
	return k
}

// Tuning is one adaptive-tuning cell cached by the engine: opaque
// recalibration state owned by the model layer (stored as `any` to keep
// exec free of a model dependency — model imports exec, not the
// reverse).
type Tuning struct {
	mu    sync.Mutex
	state any
}

// Update runs f on the cell's opaque state under the cell's lock and
// stores the returned value as the new state. The model layer uses it
// to lazily install and then mutate its recalibrator. No-op on nil.
func (t *Tuning) Update(f func(state any) any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.state = f(t.state)
	t.mu.Unlock()
}

// tuneEntry is one cached tuning cell with its LRU stamp.
type tuneEntry struct {
	t     *Tuning
	stamp uint64
}

// Tuning returns the adaptive-tuning cell for key, creating it on first
// use. Cells are cached under the same LRU discipline (and capacity
// knob) as plans — tuning state is tiny, so plan-cache depth is a safe
// bound. A nil engine (or a disabled plan cache) returns nil, which
// every Tuning method treats as "adaptation off".
func (e *Engine) Tuning(key TuneKey) *Tuning {
	if e == nil || e.maxPlans() == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tunings == nil {
		e.tunings = make(map[TuneKey]*tuneEntry)
	}
	e.tuneClock++
	if ent, ok := e.tunings[key]; ok {
		ent.stamp = e.tuneClock
		return ent.t
	}
	ent := &tuneEntry{t: &Tuning{}, stamp: e.tuneClock}
	e.tunings[key] = ent
	for len(e.tunings) > e.maxPlans() {
		e.evictTuningLocked()
	}
	return ent.t
}

// evictTuningLocked drops the least recently used tuning cell. Caller
// holds e.mu.
func (e *Engine) evictTuningLocked() {
	var victim TuneKey
	best := ^uint64(0)
	found := false
	for k, ent := range e.tunings {
		if ent.stamp < best {
			best, victim, found = ent.stamp, k, true
		}
	}
	if found {
		delete(e.tunings, victim)
	}
}
