package exec

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"maskedspgemm/internal/accum"
	"maskedspgemm/internal/chaos"
	"maskedspgemm/internal/sparse"
)

// TestQuarantineDropsPoisoned checks the quarantine contract: a
// poisoned workspace never re-enters the pool, the quarantine counter
// moves, and the pool stays self-consistent.
func TestQuarantineDropsPoisoned(t *testing.T) {
	e := New(Config{})
	ws := Masked[float64, sr](e, sr{}, accum.HashKind, 32, 256, 32, 2, 4)
	if e.Idle() != 0 {
		t.Fatalf("idle = %d before release, want 0", e.Idle())
	}
	ws.Poison()
	if !ws.Poisoned() {
		t.Fatal("Poisoned() false after Poison()")
	}
	ws.Release()
	if e.Idle() != 0 {
		t.Fatalf("idle = %d after poisoned release, want 0 (workspace must be dropped)", e.Idle())
	}
	if q := e.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantines = %d, want 1", q)
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck after quarantine: %v", err)
	}
	// The next checkout must be a miss: the poisoned instance is gone.
	prior := e.Stats()
	ws2 := Masked[float64, sr](e, sr{}, accum.HashKind, 32, 256, 32, 2, 4)
	if d := e.Stats().Sub(prior); d.Misses != 1 || d.Hits != 0 {
		t.Fatalf("post-quarantine checkout: %+v, want a pure miss", d)
	}
	ws2.Release()
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck after clean release: %v", err)
	}
}

// TestSelfCheckAcceptsCleanPool cycles clean workspaces of a marker and
// an explicit-reset accumulator kind through the pool and requires
// SelfCheck to pass at every step.
func TestSelfCheckAcceptsCleanPool(t *testing.T) {
	e := New(Config{})
	mw := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 100, 5, 2, 4)
	xw := Masked[float64, sr](e, sr{}, accum.DenseExplicitKind, 32, 64, 5, 2, 4)
	mw.Release()
	xw.Release()
	if e.Idle() != 2 {
		t.Fatalf("idle = %d, want 2", e.Idle())
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck on clean pool: %v", err)
	}
	if err := (*Engine)(nil).SelfCheck(); err != nil {
		t.Fatalf("nil engine SelfCheck: %v", err)
	}
}

// TestSelfCheckDetectsDirtyScratch releases a workspace whose
// explicit-reset accumulator holds a set state slot missing from its
// touched list — the slot BeginRow cannot clear, the corruption
// quarantine exists to keep out of the pool — and requires SelfCheck to
// name it. No accumulator method leaves such a slot, so the test writes
// it past the type's encapsulation.
func TestSelfCheckDetectsDirtyScratch(t *testing.T) {
	e := New(Config{})
	ws := Masked[float64, sr](e, sr{}, accum.DenseExplicitKind, 32, 64, 5, 2, 4)
	ws.Accs[1].LoadMask([]sparse.Index{2, 5})
	d, ok := ws.Accs[1].(*accum.DenseExplicit[float64, sr])
	if !ok {
		t.Fatalf("accumulator is %T, want *accum.DenseExplicit", ws.Accs[1])
	}
	state := reflect.ValueOf(d).Elem().FieldByName("state")
	unsafe.Slice((*uint8)(state.UnsafePointer()), state.Len())[3] = 2
	ws.Release() // deliberately unpoisoned: simulates an escaped corruption
	err := e.SelfCheck()
	if err == nil {
		t.Fatal("SelfCheck accepted a pool holding a dirty accumulator")
	}
	if !strings.Contains(err.Error(), "accumulator 1") || !strings.Contains(err.Error(), "state[3]") {
		t.Fatalf("SelfCheck error does not name the dirty slot: %v", err)
	}
}

// TestSelfCheckDetectsGaugeDrift forces the idle gauge out of sync with
// the enumerable population and requires SelfCheck to report it.
func TestSelfCheckDetectsGaugeDrift(t *testing.T) {
	e := New(Config{})
	Masked[float64, sr](e, sr{}, accum.HashKind, 32, 64, 8, 1, 1).Release()
	e.mu.Lock()
	e.idle++
	e.mu.Unlock()
	err := e.SelfCheck()
	if err == nil {
		t.Fatal("SelfCheck accepted a drifted idle gauge")
	}
	if !strings.Contains(err.Error(), "idle gauge") {
		t.Fatalf("SelfCheck error does not name the gauge: %v", err)
	}
}

// TestCheckoutReleaseChaosSeams arms each engine seam in turn and
// checks the fault surfaces as a panic carrying the injected-fault
// chain (the seams have no error channel, so panics are the contract).
func TestCheckoutReleaseChaosSeams(t *testing.T) {
	trip := func(p chaos.Point, f func(e *Engine)) {
		t.Helper()
		sd := chaos.NewSeeded(411)
		sd.Arm(p, chaos.KindError, 1, 0)
		e := New(Config{Chaos: sd})
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%v: no panic", p)
			}
			err, ok := r.(error)
			if !ok || !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("%v: panic value %v lacks the injected-fault chain", p, r)
			}
			var inj *chaos.Injected
			if !errors.As(err, &inj) || inj.Point != p {
				t.Fatalf("%v: panic payload %v does not name the seam", p, r)
			}
		}()
		f(e)
	}
	trip(chaos.WorkspaceCheckout, func(e *Engine) {
		Masked[float64, sr](e, sr{}, accum.HashKind, 32, 64, 8, 1, 1)
	})
	trip(chaos.WorkspaceRelease, func(e *Engine) {
		// Build the workspace before arming fires: checkout crosses its
		// own seam first, so arm release on crossing 1 and checkout's
		// trigger stays quiet (different point).
		Masked[float64, sr](e, sr{}, accum.HashKind, 32, 64, 8, 1, 1).Release()
	})
}

// TestStagingPooledApart checks the staging pool's contract: a staging
// set outlives the workspace it was checked out with and serves the
// next checkout of any kind or size class, a poisoned workspace's set is
// quarantined with it, and SelfCheck names a set left bound in the pool.
func TestStagingPooledApart(t *testing.T) {
	e := New(Config{})
	dense := Masked[float64, sr](e, sr{}, accum.DenseKind, 32, 1<<12, 8, 2, 6)
	outs := &dense.Outs[0]
	dense.Release()
	if e.Idle() != 1 || e.IdleStaging() != 1 {
		t.Fatalf("after release: %d idle workspaces, %d idle staging sets, want 1 and 1", e.Idle(), e.IdleStaging())
	}
	hash := Masked[float64, sr](e, sr{}, accum.HashKind, 32, 1<<20, 60, 2, 4)
	if &hash.Outs[0] != outs {
		t.Fatal("a hash checkout did not reuse the dense workspace's staging set")
	}
	if len(hash.Outs) < 4 {
		t.Fatalf("reused staging set holds %d buffers, want >= 4", len(hash.Outs))
	}
	hash.Release()
	if e.Idle() != 2 || e.IdleStaging() != 1 {
		t.Fatalf("after both kinds: %d idle workspaces, %d idle staging sets, want 2 and 1", e.Idle(), e.IdleStaging())
	}
	if err := e.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}

	poisoned := Masked[float64, sr](e, sr{}, accum.DenseExplicitKind, 32, 64, 1, 1, 2)
	poisoned.Poison()
	poisoned.Release()
	if e.IdleStaging() != 0 {
		t.Fatalf("idle staging sets = %d after a poisoned release, want 0 (quarantined with the workspace)", e.IdleStaging())
	}
	if q := e.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantines = %d, want 1 (one per workspace)", q)
	}

	leaked := Masked[float64, sr](e, sr{}, accum.HashKind, 32, 64, 8, 1, 1)
	e.putStaging(stagingType[float64](), leaked.stage) // still bound: an escaped corruption
	err := e.SelfCheck()
	if err == nil || !strings.Contains(err.Error(), "staging") {
		t.Fatalf("SelfCheck accepted a bound staging set in the pool: %v", err)
	}
}
