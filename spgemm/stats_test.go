package spgemm_test

import (
	"bytes"
	"strings"
	"testing"

	"maskedspgemm/spgemm"
)

// TestStatsRecorderThroughMxM attaches a recorder to a plain MxM call
// and checks the snapshot carries exact totals and a valid JSON form.
func TestStatsRecorderThroughMxM(t *testing.T) {
	a := spgemm.RandomGraph("rmat", 256, 7)
	opts := spgemm.Defaults()
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

// TestMxMKappaIsStatic pins that nothing adapts κ between runs: every
// warm MxM on a shared engine takes the same Eq. 3 decisions as a
// one-shot MxM.
func TestMxMKappaIsStatic(t *testing.T) {
	a := spgemm.RandomGraph("rmat", 256, 11)
	opts := spgemm.Defaults()
	opts.Stats = spgemm.NewStatsRecorder()
	if _, err := spgemm.MxM(a, a, a, opts); err != nil {
		t.Fatal(err)
	}
	want := opts.Stats.Stats().Totals
	opts.Engine = spgemm.NewEngine(spgemm.EngineConfig{})
	for i := 0; i < 5; i++ {
		opts.Stats.Reset()
		if _, err := spgemm.MxM(a, a, a, opts); err != nil {
			t.Fatal(err)
		}
		if got := opts.Stats.Stats().Totals; got.CoIterPicks != want.CoIterPicks || got.LinearPicks != want.LinearPicks {
			t.Fatalf("run %d picks co=%d linear=%d, want %d/%d as one-shot",
				i, got.CoIterPicks, got.LinearPicks, want.CoIterPicks, want.LinearPicks)
		}
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
