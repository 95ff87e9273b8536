package spgemm

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"maskedspgemm/internal/sparse"
)

// hostileMatrix builds a CSR that passes the shape checks but violates
// the index invariant: every row stores its diagonal and a column far
// beyond Cols, which drives the dense accumulator out of bounds if
// executed unvalidated. Two entries a row keep the hybrid cost model on
// the linear scan at a small κ; a one-entry row always co-iterates.
func hostileMatrix(n int) *Matrix {
	m := &sparse.CSR[float64]{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		m.ColIdx = append(m.ColIdx, sparse.Index(i), 1<<20)
		m.Val = append(m.Val, 1, 1)
		m.RowPtr[i+1] = int64(2 * (i + 1))
	}
	return wrap(m)
}

// completeGraph is the n-vertex complete graph: as a mask its rows are
// as long as its column count, so the planner derives the dense
// accumulator for it.
func completeGraph(t *testing.T, n int) *Matrix {
	t.Helper()
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	m, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestHostilePanicBecomesErrPanic feeds a corrupt operand into MxM
// without validation and requires the resulting out-of-range panic to
// come back as ErrPanic — never as a process crash — with the panic
// detail recoverable via errors.As. The complete-graph mask derives the
// dense accumulator and a tiny κ scans every B entry against it, so the
// out-of-range column is touched deterministically. The schedule
// policies are looped by the same containment tests in internal/core
// and internal/sched.
func TestHostilePanicBecomesErrPanic(t *testing.T) {
	good := completeGraph(t, 64)
	opts := Defaults()
	opts.Kappa = 1e-9
	_, err := MxM(good, good, hostileMatrix(64), opts)
	if err == nil {
		t.Fatal("corrupt operand accepted")
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("chain lacks *PanicError: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
}

// TestValidateInputsRejectsHostile requires the same corrupt operand to
// be caught up front — named, as ErrInvalidMatrix — when the caller
// opts into validation.
func TestValidateInputsRejectsHostile(t *testing.T) {
	good := RandomGraph("er", 64, 7)
	bad := hostileMatrix(64)
	opts := Defaults()
	opts.ValidateInputs = true
	_, err := MxM(good, good, bad, opts)
	if !errors.Is(err, ErrInvalidMatrix) {
		t.Fatalf("err = %v, want ErrInvalidMatrix", err)
	}
	if got := err.Error(); !containsStr(got, "b") {
		t.Fatalf("error %q does not name the offending operand", got)
	}
	// A hostile RowPtr that points past nnz must also be caught, not
	// panic inside the validator itself.
	evil := wrap(&sparse.CSR[float64]{
		Rows:   2,
		Cols:   2,
		RowPtr: []int64{0, 100, 2},
		ColIdx: []sparse.Index{0, 1},
		Val:    []float64{1, 1},
	})
	if _, err := MxM(evil, good, good, opts); !errors.Is(err, ErrInvalidMatrix) {
		t.Fatalf("rowptr attack: err = %v, want ErrInvalidMatrix", err)
	}
	// Valid inputs still pass with validation on.
	if _, err := MxM(good, good, good, opts); err != nil {
		t.Fatalf("valid inputs rejected: %v", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestMxMPreCancelledContext requires an already-cancelled context to
// stop the multiply before any work, matching both ErrCanceled and the
// context package's sentinel.
func TestMxMPreCancelledContext(t *testing.T) {
	a := RandomGraph("er", 50, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Defaults()
	opts.Context = ctx
	_, err := MxM(a, a, a, opts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not match context.Canceled", err)
	}
}

// TestMxMMidFlightCancel cancels a deadline mid-multiply on a
// graph large enough that the kernel cannot finish first, and checks
// both the typed error and that no worker goroutines are left behind.
func TestMxMMidFlightCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cancelled := false
	for n := 1 << 13; n <= 1<<16 && !cancelled; n *= 2 {
		a := RandomGraph("er", n, 13)
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		opts := Defaults()
		opts.Context = ctx
		_, err := MxM(a, a, a, opts)
		cancel()
		switch {
		case err == nil:
			// The multiply beat the deadline; retry on a larger graph.
		case errors.Is(err, ErrCanceled) && errors.Is(err, context.DeadlineExceeded):
			cancelled = true
		default:
			t.Fatalf("n=%d: err = %v, want ErrCanceled wrapping DeadlineExceeded", n, err)
		}
	}
	if !cancelled {
		t.Fatal("could not interrupt the multiply even on the largest graph")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak after cancel: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestMultiplierContextLifecycle exercises the context-aware plan API:
// cancelled construction, cancelled execution, and reuse after failure.
func TestMultiplierContextLifecycle(t *testing.T) {
	a := RandomGraph("er", 120, 17)
	ref, err := MxM(a, a, a, Defaults())
	if err != nil {
		t.Fatal(err)
	}

	done, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := Defaults()
	cancelled.Context = done
	if _, err := NewMultiplier(a, a, a, cancelled); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled plan construction: err = %v, want ErrCanceled", err)
	}

	mu, err := NewMultiplier(a, a, a, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mu.MultiplyContext(done); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled multiply: err = %v, want ErrCanceled", err)
	}
	// The failed run must leave the plan reusable and bit-identical.
	for i := 0; i < 2; i++ {
		got, err := mu.Multiply()
		if err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
		if !got.Equal(ref) {
			t.Fatalf("reuse %d: result differs from one-shot MxM", i)
		}
	}
}

// TestErrorTaxonomyDistinct pins the contract that the five sentinels
// are distinct and that shape errors keep wrapping ErrShape.
func TestErrorTaxonomyDistinct(t *testing.T) {
	sentinels := []error{ErrShape, ErrConfig, ErrInvalidMatrix, ErrCanceled, ErrPanic}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("sentinel identity broken between %v and %v", a, b)
			}
		}
	}
	x := RandomGraph("er", 20, 1)
	y := RandomGraph("er", 30, 1)
	if _, err := MxM(x, x, y, Defaults()); !errors.Is(err, ErrShape) {
		t.Fatalf("shape mismatch err = %v, want ErrShape", err)
	}
	bad := Defaults()
	bad.Tiles = -1
	if _, err := MxM(x, x, x, bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad config err = %v, want ErrConfig", err)
	}
}

// TestUnknownSemiringIsErrConfig requires every entry point that
// dispatches on Options.Semiring to reject a value outside the enum as
// ErrConfig instead of running some other algebra.
func TestUnknownSemiringIsErrConfig(t *testing.T) {
	a := RandomGraph("er", 40, 3)
	entries := []struct {
		name string
		run  func(Options) error
	}{
		{"MxM", func(o Options) error { _, err := MxM(a, a, a, o); return err }},
		{"MxMComplement", func(o Options) error { _, err := MxMComplement(a, a, a, o); return err }},
		{"MxMUnmasked", func(o Options) error { _, err := MxMUnmasked(a, a, o); return err }},
		{"NewMultiplier", func(o Options) error { _, err := NewMultiplier(a, a, a, o); return err }},
		{"EWiseAdd", func(o Options) error { _, err := EWiseAdd(a, a, o); return err }},
		{"EWiseMult", func(o Options) error { _, err := EWiseMult(a, a, o); return err }},
	}
	for _, sr := range []Semiring{-1, SROrAnd + 1} {
		for _, e := range entries {
			o := Defaults()
			o.Semiring = sr
			if err := e.run(o); !errors.Is(err, ErrConfig) {
				t.Errorf("%s, semiring %d: err = %v, want ErrConfig", e.name, sr, err)
			}
		}
	}
}
