package chaos

import (
	"errors"
	"testing"
	"time"
)

func TestNilInjectorFastPath(t *testing.T) {
	if k := Step(nil, RowKernel); k != KindNone {
		t.Fatalf("Step(nil) = %v, want KindNone", k)
	}
	StepHard(nil, RowKernel) // must not panic
	if n := testing.AllocsPerRun(100, func() {
		Step(nil, RowKernel)
		StepHard(nil, WorkspaceCheckout)
	}); n != 0 {
		t.Fatalf("nil-injector fast path allocates %v per run, want 0", n)
	}
}

func TestStepExecutesKinds(t *testing.T) {
	always := func(k Kind) Injector {
		return Func(func(Point) Fault { return Fault{Kind: k, Delay: time.Microsecond} })
	}

	// Error and Cancel are returned for the seam to translate.
	if k := Step(always(KindError), PlanStore); k != KindError {
		t.Fatalf("Step(error) = %v, want KindError", k)
	}
	if k := Step(always(KindCancel), TileClaim); k != KindCancel {
		t.Fatalf("Step(cancel) = %v, want KindCancel", k)
	}
	// Delay proceeds normally.
	if k := Step(always(KindDelay), TileClaim); k != KindNone {
		t.Fatalf("Step(delay) = %v, want KindNone", k)
	}

	// Panic and Pressure panic with an *Injected matching ErrInjected.
	for _, kind := range []Kind{KindPanic, KindPressure} {
		func() {
			defer func() {
				r := recover()
				inj, ok := r.(*Injected)
				if !ok {
					t.Fatalf("Step(%v) panicked with %T, want *Injected", kind, r)
				}
				if inj.Kind != kind || inj.Point != RowKernel {
					t.Fatalf("Step(%v) payload = %+v", kind, inj)
				}
				if !errors.Is(inj, ErrInjected) {
					t.Fatalf("panic payload does not match ErrInjected")
				}
			}()
			Step(always(kind), RowKernel)
		}()
	}

	// StepHard escalates Error and Cancel to panics.
	for _, kind := range []Kind{KindError, KindCancel} {
		func() {
			defer func() {
				if _, ok := recover().(*Injected); !ok {
					t.Fatalf("StepHard(%v) did not panic with *Injected", kind)
				}
			}()
			StepHard(always(kind), AccumGrow)
		}()
	}
}

func TestSeededOneShotAndDeterministic(t *testing.T) {
	s := NewSeeded(42)
	s.Arm(TileClaim, KindError, 3, 0)
	var fires []int64
	for i := 0; i < 10; i++ {
		if f := s.Decide(TileClaim); f.Kind != KindNone {
			fires = append(fires, int64(i+1))
		}
	}
	if len(fires) != 1 || fires[0] != 3 {
		t.Fatalf("trigger fired at crossings %v, want [3]", fires)
	}
	if s.Crossings(TileClaim) != 10 || s.Fired(TileClaim) != 1 {
		t.Fatalf("crossings=%d fired=%d, want 10/1",
			s.Crossings(TileClaim), s.Fired(TileClaim))
	}

	// Same seed → same derived crossing; the derivation respects maxNth.
	pick := func(seed int64) int64 {
		in := NewSeeded(seed)
		in.ArmSeeded(RowKernel, KindPanic, 50, 0)
		for i := int64(1); i <= 50; i++ {
			if in.Decide(RowKernel).Kind != KindNone {
				return i
			}
		}
		return -1
	}
	a, b := pick(7), pick(7)
	if a != b {
		t.Fatalf("same seed picked crossings %d and %d", a, b)
	}
	if a < 1 || a > 50 {
		t.Fatalf("derived crossing %d out of [1,50]", a)
	}
}

func TestNames(t *testing.T) {
	for p := Point(0); p < NumPoints; p++ {
		if p.String() == "" {
			t.Fatalf("point %d has no name", p)
		}
	}
	for _, k := range []Kind{KindNone, KindPanic, KindError, KindDelay, KindCancel, KindPressure} {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}
