package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"maskedspgemm/internal/obs"
)

// ResultSchema identifies the JSON layout of a ResultReport — the
// machine-readable twin of an experiment's text table, and the only
// document spgemm-bench writes.
const ResultSchema = "maskedspgemm/bench-results/v1"

// ResultEntry is one timed (experiment, graph, config) data point.
type ResultEntry struct {
	Experiment string `json:"experiment"`
	Graph      string `json:"graph"`
	Config     string `json:"config"`
	Measurement
	// Values carries the row's non-timing numbers — a warm pool hit
	// rate, a schedule's level/wave counts, the κ a recalibrator settled
	// on, fused-pipeline counters — keyed by the counter's JSON name.
	Values map[string]float64 `json:"values,omitempty"`
}

// ResultLog collects the individual measurements behind an experiment's
// text table, so the run can also be emitted as JSON and judged by the
// timing gates. A nil *ResultLog discards everything, letting
// experiment code log unconditionally.
type ResultLog struct {
	entries []ResultEntry
}

// Add records one measurement. Nil-safe.
func (l *ResultLog) Add(experiment, graph, config string, m Measurement) {
	if l == nil {
		return
	}
	l.entries = append(l.entries, ResultEntry{
		Experiment: experiment, Graph: graph, Config: config, Measurement: m,
	})
}

// Annotate merges values into the most recent (experiment, graph,
// config) row — the one Options.time just logged. Annotating a row that
// was never timed is a harness bug. Nil-safe.
func (l *ResultLog) Annotate(experiment, graph, config string, values map[string]float64) {
	if l == nil {
		return
	}
	for i := len(l.entries) - 1; i >= 0; i-- {
		e := &l.entries[i]
		if e.Experiment != experiment || e.Graph != graph || e.Config != config {
			continue
		}
		if e.Values == nil {
			e.Values = make(map[string]float64, len(values))
		}
		for k, v := range values {
			e.Values[k] = v
		}
		return
	}
	panic(fmt.Sprintf("bench: annotating unlogged row %s/%s/%s", experiment, graph, config))
}

// counterValues flattens a counter struct (pool, fused-pipeline or
// recalibration statistics) into a values map keyed by its JSON names.
func counterValues(counters any) map[string]float64 {
	data, err := json.Marshal(counters)
	if err != nil {
		panic(err) // flat numeric structs always marshal
	}
	var values map[string]float64
	if err := json.Unmarshal(data, &values); err != nil {
		panic(err)
	}
	return values
}

// Entries returns the rows of one experiment, in logging order.
func (l *ResultLog) Entries(experiment string) []ResultEntry {
	var out []ResultEntry
	if l != nil {
		for _, e := range l.entries {
			if e.Experiment == experiment {
				out = append(out, e)
			}
		}
	}
	return out
}

// Len reports the number of recorded entries (0 for nil).
func (l *ResultLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.entries)
}

// ResultReport is the JSON document a ResultLog renders to.
type ResultReport struct {
	Schema     string        `json:"schema"`
	Experiment string        `json:"experiment"`
	Results    []ResultEntry `json:"results"`
}

// WriteJSON emits the log as a schema-tagged JSON document named for
// the -experiment selection that produced it.
func (l *ResultLog) WriteJSON(w io.Writer, experiment string) error {
	r := ResultReport{Schema: ResultSchema, Experiment: experiment}
	if l != nil {
		r.Results = l.entries
	}
	return obs.WriteJSON(w, r)
}

// ValidateResultJSON checks that data is a schema-conforming
// ResultReport document (strict round-trip plus schema tag).
func ValidateResultJSON(data []byte) error {
	var r ResultReport
	if err := obs.RoundTrip(data, &r); err != nil {
		return err
	}
	if r.Schema != ResultSchema {
		return fmt.Errorf("bench: schema %q, want %q", r.Schema, ResultSchema)
	}
	return nil
}
