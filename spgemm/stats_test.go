package spgemm_test

import (
	"bytes"
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

// TestMultiplierLastStats checks the per-call isolation of LastStats
// while the recorder keeps running totals.
func TestMultiplierLastStats(t *testing.T) {
	a := spgemm.RandomGraph("er", 200, 3)
	opts := spgemm.Defaults()
	opts.Tiles = 8
	opts.Stats = spgemm.NewStatsRecorder()
	mu, err := spgemm.NewMultiplier(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mu.LastStats(); ok {
		t.Fatal("LastStats reported ok before any run")
	}
	var c *spgemm.Matrix
	for i := 0; i < 3; i++ {
		if c, err = mu.Multiply(); err != nil {
			t.Fatal(err)
		}
	}
	last, ok := mu.LastStats()
	if !ok {
		t.Fatal("LastStats not available after runs")
	}
	if last.Runs != 1 {
		t.Fatalf("last snapshot covers %d runs, want 1", last.Runs)
	}
	if last.Totals.Gathered != c.NNZ() {
		t.Fatalf("last gathered = %d, want %d", last.Totals.Gathered, c.NNZ())
	}
	total := opts.Stats.Stats()
	if total.Runs != 3 {
		t.Fatalf("recorder totals cover %d runs, want 3", total.Runs)
	}
	if total.Totals.Gathered != 3*c.NNZ() {
		t.Fatalf("recorder gathered = %d, want %d", total.Totals.Gathered, 3*c.NNZ())
	}
	opts.Stats.Reset()
	if st := opts.Stats.Stats(); st.Runs != 0 || st.Totals.Gathered != 0 {
		t.Fatalf("reset left data behind: %+v", st)
	}
}

// TestStatsRecorderConcurrentRuns shares one StatsRecorder between two
// goroutines that each run the same engineless product n times. Every
// run records through its own scope, so the totals must be exact: 2n
// runs and 2n times one run's counter set, and LastRun must be a single
// run. Hash probe counts are not compared: they depend on which rows
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
	// A Multiplier's LastStats is its recorder's last run to end.
	mu, err := spgemm.NewMultiplier(a, a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	last, ok := mu.LastStats()
	if !ok || last.Runs != 1 || last.Totals != one {
		t.Fatalf("LastRun = %+v (ok=%v), want one run's totals %+v", last.Totals, ok, one)
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
