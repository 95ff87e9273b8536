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
// dense accumulator, and its 63-entry rows never co-iterate with B rows
// of at most 64 entries, so every B entry is scanned against it and the
// out-of-range column is touched deterministically. The schedule
// policies are looped by the same containment tests in internal/core
// and internal/sched.
func TestHostilePanicBecomesErrPanic(t *testing.T) {
	good := completeGraph(t, 64)
	_, err := MxM(good, good, hostileMatrix(64), Defaults())
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

// TestMxMCancelLeavesEngineReusable: a product cancelled on a shared
// engine returns ErrCanceled, and the engine goes on serving the same
// product, bit-identical to a one-shot MxM.
func TestMxMCancelLeavesEngineReusable(t *testing.T) {
	a := RandomGraph("er", 120, 17)
	ref, err := MxM(a, a, a, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	opts := Defaults()
	opts.Engine = NewEngine(EngineConfig{})
	// Warm: the plan is cached and a workspace pooled before the cancel.
	if _, err := MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := opts
	cancelled.Context = done
	if _, err := MxM(a, a, a, cancelled); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled multiply: err = %v, want ErrCanceled", err)
	}
	for i := 0; i < 2; i++ {
		got, err := MxM(a, a, a, opts)
		if err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
		if !got.Equal(ref) {
			t.Fatalf("reuse %d: result differs from one-shot MxM", i)
		}
	}
	if err := opts.Engine.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck after the cancelled run: %v", err)
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
	bad.Workers = -1
	if _, err := MxM(x, x, x, bad); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad config err = %v, want ErrConfig", err)
	}
}

// TestUnknownSemiringIsErrConfig requires MxM, the entry point that
// dispatches on Options.Semiring, to reject a value outside the enum as
// ErrConfig instead of running some other algebra.
func TestUnknownSemiringIsErrConfig(t *testing.T) {
	a := RandomGraph("er", 40, 3)
	for _, sr := range []Semiring{-1, SROrAnd + 1} {
		o := Defaults()
		o.Semiring = sr
		if _, err := MxM(a, a, a, o); !errors.Is(err, ErrConfig) {
			t.Errorf("semiring %d: err = %v, want ErrConfig", sr, err)
		}
	}
}

// TestGraphArgumentErrorsWrapSentinels holds the graph entry points to
// the taxonomy docs/ERRORS.md promises: a bad argument returns an error
// wrapping its sentinel — ErrConfig for a k below 3, ErrShape for a
// source outside [0, n) and a triangle count of a non-square operand,
// ErrInvalidMatrix for a triangle count of an asymmetric one — and no
// other sentinel.
func TestGraphArgumentErrorsWrapSentinels(t *testing.T) {
	a := RandomGraph("er", 40, 9)
	// Directed 0→1→2 plus 0→2: one wedge closes, 1/6 of a triangle.
	directed, err := FromTriples(3, 3, []Triple{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 2, Val: 1}, {Row: 0, Col: 2, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := FromTriples(2, 3, []Triple{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sentinels := []error{ErrShape, ErrConfig, ErrInvalidMatrix, ErrCanceled, ErrPanic, ErrStalled, ErrSingular, ErrNotTriangular}
	for _, tc := range []struct {
		name string
		want error
		run  func() error
	}{
		{"KTruss/k=2", ErrConfig, func() error { _, _, err := KTruss(a, 2, Defaults()); return err }},
		{"KTruss/k=-1", ErrConfig, func() error { _, _, err := KTruss(a, -1, Defaults()); return err }},
		{"BFS/src=999", ErrShape, func() error { _, err := BFS(a, 999); return err }},
		{"BFS/src=-1", ErrShape, func() error { _, err := BFS(a, -1); return err }},
		{"BetweennessCentralityBatch/src=-1", ErrShape, func() error {
			_, err := BetweennessCentralityBatch(a, []int{-1}, Defaults())
			return err
		}},
		{"BetweennessCentralityBatch/src=999", ErrShape, func() error {
			_, err := BetweennessCentralityBatch(a, []int{3, 999}, Defaults())
			return err
		}},
		{"TriangleCount/asymmetric", ErrInvalidMatrix, func() error { _, err := TriangleCount(directed, Defaults()); return err }},
		{"TriangleCount/non-square", ErrShape, func() error { _, err := TriangleCount(wide, Defaults()); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			for _, s := range sentinels {
				if errors.Is(err, s) != (s == tc.want) {
					t.Fatalf("err = %v: errors.Is(%v) = %v, want only %v", err, s, errors.Is(err, s), tc.want)
				}
			}
		})
	}
}
