package spgemm_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"maskedspgemm/spgemm"
)

// TestStatsRecorderThroughMxM attaches a recorder to a plain MxM call
// and checks the snapshot carries exact totals and a valid JSON form.
func TestStatsRecorderThroughMxM(t *testing.T) {
	a := spgemm.RandomGraph("rmat", 256, 7)
	opts := spgemm.Defaults()
	opts.Tiles = 16
	opts.Stats = spgemm.NewStatsRecorder()
	c, err := spgemm.MxM(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := opts.Stats.Stats()
	if st.Runs != 1 {
		t.Fatalf("runs = %d, want 1", st.Runs)
	}
	if st.Totals.Rows != int64(a.Rows()) {
		t.Fatalf("rows = %d, want %d", st.Totals.Rows, a.Rows())
	}
	if st.Totals.Gathered != c.NNZ() {
		t.Fatalf("gathered = %d, want C nnz %d", st.Totals.Gathered, c.NNZ())
	}
	if st.Totals.CoIterPicks+st.Totals.LinearPicks == 0 {
		t.Fatal("hybrid run recorded no Eq. 3 decisions")
	}
	var kernelSpanned bool
	for _, p := range st.Phases {
		if p.Phase == "exec.kernel" && p.Count == 1 {
			kernelSpanned = true
		}
	}
	if !kernelSpanned {
		t.Fatalf("exec.kernel span missing: %+v", st.Phases)
	}

	data, err := spgemm.MarshalStatsJSON(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := spgemm.ValidateStatsJSON(data); err != nil {
		t.Fatalf("stats JSON failed validation: %v", err)
	}
	var buf bytes.Buffer
	spgemm.WriteStatsTable(&buf, st)
	if !strings.Contains(buf.String(), "exec.kernel") {
		t.Fatalf("table output missing phases:\n%s", buf.String())
	}
}

// TestKappaSteersHybridPicks pins that Options.Kappa is the κ the
// kernel decides by: raising it moves Eq. 3 decisions from linear scans
// to co-iteration, never the other way, and never changes the product.
func TestKappaSteersHybridPicks(t *testing.T) {
	a := spgemm.RandomGraph("rmat", 256, 7)
	kappas := []float64{1e-9, 1, 1e9}
	co := make([]int64, len(kappas))
	lin := make([]int64, len(kappas))
	var ref *spgemm.Matrix
	for i, k := range kappas {
		t.Run(fmt.Sprintf("kappa=%g", k), func(t *testing.T) {
			opts := spgemm.Defaults()
			opts.Kappa = k
			opts.Stats = spgemm.NewStatsRecorder()
			c, err := spgemm.MxM(a, a, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = c
			} else if !c.Equal(ref) {
				t.Fatalf("κ=%g changed the result", k)
			}
			tot := opts.Stats.Stats().Totals
			co[i], lin[i] = tot.CoIterPicks, tot.LinearPicks
		})
	}
	for i := 1; i < len(kappas); i++ {
		if co[i] < co[i-1] || lin[i] > lin[i-1] || co[i]+lin[i] != co[0]+lin[0] {
			t.Fatalf("picks co=%v linear=%v over κ=%v: want co-iteration rising, linear falling, same total", co, lin, kappas)
		}
	}
	if co[len(co)-1] == co[0] {
		t.Fatalf("κ from %g to %g moved no decision (co=%v)", kappas[0], kappas[len(kappas)-1], co)
	}
}

// TestMxMKappaIsStatic pins that nothing adapts κ between runs: every
// warm MxM on a shared engine takes the same Eq. 3 decisions as a
// one-shot MxM at the configured κ.
func TestMxMKappaIsStatic(t *testing.T) {
	a := spgemm.RandomGraph("rmat", 256, 11)
	opts := spgemm.Defaults()
	opts.Kappa = 0.5
	opts.Stats = spgemm.NewStatsRecorder()
	if _, err := spgemm.MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
	want := opts.Stats.Stats().Totals
	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	for i := 0; i < 5; i++ {
		before := opts.Stats.Stats()
		if _, err := spgemm.MxM(a, a, a, opts); err != nil {
			t.Fatal(err)
		}
		if got := opts.Stats.Stats().Sub(before).Totals; got.CoIterPicks != want.CoIterPicks || got.LinearPicks != want.LinearPicks {
			t.Fatalf("run %d picks co=%d linear=%d, want %d/%d as at κ=%g",
				i, got.CoIterPicks, got.LinearPicks, want.CoIterPicks, want.LinearPicks, opts.Kappa)
		}
	}
}

// TestStatsRecorderConcurrentRuns shares one StatsRecorder between two
// goroutines that each run the same engineless product n times. Every
// run records through its own scope, so the totals must be exact: 2n
// runs and 2n times one run's counter set. Hash probe counts are not compared: they depend on which rows
// share an accumulator.
func TestStatsRecorderConcurrentRuns(t *testing.T) {
	const n = 8
	a := spgemm.RandomGraph("rmat", 256, 5)
	opts := spgemm.Defaults()
	opts.Tiles = 16
	opts.Stats = spgemm.NewStatsRecorder()
	if _, err := spgemm.MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
	one := opts.Stats.Stats().Totals
	if one.Tiles == 0 || one.Gathered == 0 {
		t.Fatalf("one run recorded nothing: %+v", one)
	}
	opts.Stats.Reset()

	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n {
				if _, err := spgemm.MxM(a, a, a, opts); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := opts.Stats.Stats()
	if st.Runs != 2*n {
		t.Fatalf("runs = %d, want %d", st.Runs, 2*n)
	}
	want := spgemm.CounterSet{
		Tiles: 2 * n * one.Tiles, Rows: 2 * n * one.Rows, Flops: 2 * n * one.Flops,
		CoIterPicks: 2 * n * one.CoIterPicks, LinearPicks: 2 * n * one.LinearPicks,
		Gathered: 2 * n * one.Gathered,
	}
	if st.Totals != want {
		t.Fatalf("totals = %+v, want %d × one run = %+v", st.Totals, 2*n, want)
	}
}

// TestNilStatsRecorder checks the disabled path end to end: nil
// Options.Stats must run identically and a nil *StatsRecorder must be
// safe to query.
func TestNilStatsRecorder(t *testing.T) {
	var nilRec *spgemm.StatsRecorder
	nilRec.Reset()
	st := nilRec.Stats()
	if st.Schema != spgemm.StatsSchema {
		t.Fatalf("nil snapshot schema %q", st.Schema)
	}
	if st.Runs != 0 || len(st.Phases) != 0 || len(st.Workers) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", st)
	}
	a := spgemm.RandomGraph("er", 100, 1)
	opts := spgemm.Defaults()
	opts.Stats = nil
	if _, err := spgemm.MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
}
