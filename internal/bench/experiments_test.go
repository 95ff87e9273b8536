package bench

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"maskedspgemm/internal/exec"
)

// TestExperimentsRegistry runs every entry of the Experiments table at
// test scale on one graph with a ResultLog attached: each must print
// its table header, log exactly the rows its table shows — so -json
// has a row for every number printed, the regression the six
// experiments that used to time without logging would fail — and the
// log must round-trip through bench-results/v1.
func TestExperimentsRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	o := testOptions()
	o.Graphs = []string{"GAP-road-sim"}
	scalingCounts := 0
	for c := 1; c <= runtime.GOMAXPROCS(0)*2; c *= 2 {
		scalingCounts++
	}
	value := func(t *testing.T, e ResultEntry, key string) float64 {
		t.Helper()
		v, ok := e.Values[key]
		if !ok {
			t.Errorf("%s/%s: no %q value (have %v)", e.Experiment, e.Config, key, e.Values)
		}
		return v
	}
	want := map[string]struct {
		prints []string // table header and row labels
		rows   int      // logged measurements (0 = times nothing)
		check  func(*testing.T, []ResultEntry)
	}{
		"table1":      {prints: []string{"paper-nnz", "GAP-road-sim"}},
		"fig1":        {prints: []string{"GrB~"}, rows: 3},
		"fig10+fig11": {prints: []string{"Figure 10", "Figure 11"}, rows: 8 * len(o.TileCounts)},
		"fig13":       {prints: []string{"32b"}, rows: 2 * 4},
		"fig14":       {prints: []string{"no-coiter"}, rows: 2 * (len(o.Kappas) + 1)},
		"tune":        {prints: []string{"stage 1", "stage 2", "stage 3", "tuned:"}, rows: 8*len(o.TileCounts) + len(o.Kappas) + 4},
		"ablation":    {prints: []string{"explicit", "PlusPair", "vanilla"}, rows: 4},
		"predict":     {prints: []string{"predicted-config"}, rows: 2},
		"model":       {prints: []string{"predicted", "maskload-ms"}, rows: 2},
		"sortcost":    {prints: []string{"breakeven"}, rows: 2},
		"scaling":     {prints: []string{"workers"}, rows: scalingCounts},
		"counters":    {prints: []string{"rejected"}},
		"plan": {
			prints: []string{"RowWork", "PrefixSum", "BalancedTiles", "Prepare"},
			rows:   4 * len(planWorkerCounts()),
		},
		"sched": {prints: []string{"Static", "Dynamic", "Guided"}, rows: 3 * len(o.TileCounts)},
		"engine": {
			prints: []string{"hit-rate", "fus allocs/op", "ktruss", "bcbatch", "warm pool hit rate >= 95%"},
			rows:   2 * 3,
			check: func(t *testing.T, rows []ResultEntry) {
				for _, e := range rows {
					if strings.HasSuffix(e.Config, "/no-engine") {
						continue
					}
					if rate := value(t, e, "warm_hit_rate"); rate < minWarmHitRate {
						t.Errorf("%s: warm hit rate %.3f", e.Config, rate)
					}
				}
				if fused := rows[2]; value(t, fused, "select_runs") == 0 {
					t.Errorf("fused k-truss ran no select multiply: %v", fused.Values)
				}
			},
		},
		"kappa-adapt": {
			prints: []string{"adapt-κ"},
			rows:   len(o.Kappas) + 1, // the grid holds the default κ = 1
			check: func(t *testing.T, rows []ResultEntry) {
				adapted := rows[len(rows)-1]
				if value(t, adapted, "adapted_kappa") <= 0 || value(t, adapted, "warm_runs") < 1 ||
					value(t, adapted, "best_millis") <= 0 || value(t, adapted, "default_millis") <= 0 {
					t.Errorf("adapted row incomplete: %v", adapted.Values)
				}
			},
		},
		"trsv": {
			prints: []string{"serial-w", "speedup", "pred ser"},
			rows:   3,
			check: func(t *testing.T, rows []ResultEntry) {
				for _, e := range rows[1:] {
					if e.OutputNNZ != rows[0].OutputNNZ {
						t.Errorf("serial and %s checksums differ: %d vs %d", e.Config, rows[0].OutputNNZ, e.OutputNNZ)
					}
				}
				if wave := rows[1]; value(t, wave, "levels") < 1 || value(t, wave, "waves") < 1 {
					t.Errorf("wave row has no schedule shape: %v", wave.Values)
				}
				auto := rows[2]
				if ran := value(t, auto, "waves_ran"); ran != 0 && ran != 1 {
					t.Errorf("auto row waves_ran = %v", ran)
				}
				if value(t, auto, "pred_serial_ms") <= 0 || value(t, auto, "pred_wave_ms") <= 0 ||
					value(t, auto, "measured_serial_ms") <= 0 || value(t, auto, "measured_wave_ms") <= 0 {
					t.Errorf("auto row incomplete: %v", auto.Values)
				}
			},
		},
		"chaos": {prints: []string{"Chaos drill", "pool invariants held throughout", "steady budget"}, rows: 2},
		"stats": {
			prints: []string{"Kernel observability", "exec.kernel"},
			rows:   1,
			check: func(t *testing.T, rows []ResultEntry) {
				// One untimed-warm-up-free repetition: the recorder saw
				// exactly the run the measurement reports.
				e := rows[0]
				if value(t, e, "rows") == 0 || int64(value(t, e, "gathered")) != e.OutputNNZ {
					t.Errorf("stats totals inconsistent with the measurement: %v vs nnz %d", e.Values, e.OutputNNZ)
				}
			},
		},
		"crossover": {
			prints: []string{"Tile crossover", "model W*", "road-64x16", "er-64", "measured winner agrees"},
			rows:   2 * (len(crossoverHeights) + len(crossoverVertices)),
			check: func(t *testing.T, rows []ResultEntry) {
				below, above := false, false
				for i := 0; i < len(rows); i += 2 {
					one, tiled := rows[i], rows[i+1]
					if one.Config != "one-tile" || tiled.Config != "tiled" || one.Graph != tiled.Graph {
						t.Fatalf("rows %d,%d are not a one-tile/tiled pair: %s/%s, %s/%s",
							i, i+1, one.Graph, one.Config, tiled.Graph, tiled.Config)
					}
					if one.OutputNNZ != tiled.OutputNNZ {
						t.Errorf("%s: checksums differ across the crossover: %d vs %d", one.Graph, one.OutputNNZ, tiled.OutputNNZ)
					}
					w, constant := value(t, one, "untiled_work"), value(t, one, "constant")
					if w != value(t, tiled, "untiled_work") || w <= 0 || value(t, one, "model_crossover") <= 0 ||
						value(t, one, "us_per_multiply") <= 0 || value(t, tiled, "us_per_multiply") <= 0 {
						t.Errorf("%s: incomplete values: %v / %v", one.Graph, one.Values, tiled.Values)
					}
					below = below || w < constant
					above = above || w >= constant
				}
				if !below || !above {
					t.Errorf("the sweep does not straddle the constant (below %v, above %v)", below, above)
				}
			},
		},
	}
	if len(Experiments(1)) != len(want) {
		t.Errorf("table has %d experiments, expectations cover %d", len(Experiments(1)), len(want))
	}
	for _, e := range Experiments(1) {
		t.Run(e.Name, func(t *testing.T) {
			exp, ok := want[e.Name]
			if !ok {
				t.Fatalf("no expectation for experiment %q: add one", e.Name)
			}
			o := o
			o.Log = &ResultLog{}
			var buf bytes.Buffer
			if err := e.Run(&buf, o); err != nil {
				t.Fatalf("%v\n%s", err, buf.String())
			}
			for _, s := range exp.prints {
				if !strings.Contains(buf.String(), s) {
					t.Errorf("output missing %q:\n%s", s, buf.String())
				}
			}
			rows := o.Log.Entries(e.Name)
			if len(rows) != exp.rows || o.Log.Len() != exp.rows {
				t.Fatalf("logged %d rows (%d under %q), want %d", o.Log.Len(), len(rows), e.Name, exp.rows)
			}
			if exp.rows == 0 {
				return
			}
			var doc bytes.Buffer
			if err := o.Log.WriteJSON(&doc, e.Name); err != nil {
				t.Fatal(err)
			}
			if err := ValidateResultJSON(doc.Bytes()); err != nil {
				t.Errorf("rows do not round-trip through %s: %v", ResultSchema, err)
			}
			for _, r := range rows {
				if r.Reps == 0 {
					t.Errorf("%s/%s: no timed repetition", r.Graph, r.Config)
				}
			}
			if exp.check != nil && !t.Failed() {
				exp.check(t, rows)
			}
		})
	}
}

// TestExperimentSelection pins how -experiment picks table entries.
func TestExperimentSelection(t *testing.T) {
	var all, named []string
	for _, e := range Experiments(1) {
		if e.Selected("all") {
			all = append(all, e.Name)
		}
		if !e.Selected(e.Name) {
			t.Errorf("%s does not select itself", e.Name)
		}
		if e.Selected("fig11") {
			named = append(named, e.Name)
		}
		if e.Selected("nope") || e.Selected("") {
			t.Errorf("%s selected by a bogus name", e.Name)
		}
	}
	wantAll := "table1 fig1 fig10+fig11 fig13 fig14 tune ablation predict model sortcost scaling counters plan sched"
	if got := strings.Join(all, " "); got != wantAll {
		t.Errorf("-experiment all runs\n  %s\nwant\n  %s", got, wantAll)
	}
	if len(named) != 1 || named[0] != "fig10+fig11" {
		t.Errorf("-experiment fig11 selects %v", named)
	}
}

// TestCheckWarmHitRate pins the engine experiment's in-experiment gate:
// a warm loop must serve at least 95% of its checkouts from the pool.
func TestCheckWarmHitRate(t *testing.T) {
	cases := []struct {
		name string
		pool exec.PoolStats
		ok   bool
	}{
		{"all hits", exec.PoolStats{Hits: 40}, true},
		{"steals count as served", exec.PoolStats{Hits: 10, Steals: 9, Misses: 1}, true},
		{"half missed", exec.PoolStats{Hits: 5, Misses: 5}, false},
		{"just under", exec.PoolStats{Hits: 94, Misses: 6}, false},
		{"no lookups", exec.PoolStats{}, true},
	}
	for _, c := range cases {
		if err := checkWarmHitRate(c.name, c.pool); (err == nil) != c.ok {
			t.Errorf("%s: hit rate %.3f, gate returned %v", c.name, c.pool.HitRate(), err)
		}
	}
}
