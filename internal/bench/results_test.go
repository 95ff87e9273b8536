package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestResultLogJSON exercises the nil-safe log and its JSON twin.
func TestResultLogJSON(t *testing.T) {
	var nilLog *ResultLog
	nilLog.Add("x", "g", "c", Measurement{}) // must not panic
	if nilLog.Len() != 0 {
		t.Fatal("nil log reported entries")
	}

	log := &ResultLog{}
	log.Add("fig1", "g1", "tuned", Measurement{Millis: 1.5, Reps: 2, OutputNNZ: 10})
	log.Add("fig1", "g2", "tuned", Measurement{Millis: 2.5, Reps: 2, OutputNNZ: 20})
	if log.Len() != 2 {
		t.Fatalf("len = %d, want 2", log.Len())
	}
	var doc bytes.Buffer
	if err := log.WriteJSON(&doc, "fig1"); err != nil {
		t.Fatal(err)
	}
	if err := ValidateResultJSON(doc.Bytes()); err != nil {
		t.Fatalf("log does not round-trip: %v", err)
	}
	if !strings.Contains(doc.String(), `"min_millis": 1.5`) {
		t.Fatalf("missing measurement fields:\n%s", doc.String())
	}
	if strings.Contains(doc.String(), `"values"`) {
		t.Fatalf("unannotated rows must omit the values map:\n%s", doc.String())
	}
	if err := ValidateResultJSON([]byte(`{"schema":"nope","experiment":"x","results":[]}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}

	// Annotate merges into the latest matching row, and the annotated
	// document still round-trips.
	log.Add("fig1", "g1", "tuned", Measurement{Millis: 1.25, Reps: 1, OutputNNZ: 10})
	log.Annotate("fig1", "g1", "tuned", map[string]float64{"warm_hit_rate": 1})
	log.Annotate("fig1", "g1", "tuned", map[string]float64{"levels": 7})
	rows := log.Entries("fig1")
	if len(rows) != 3 || rows[0].Values != nil || len(rows[2].Values) != 2 || rows[2].Values["levels"] != 7 {
		t.Fatalf("annotate hit the wrong row: %+v", rows)
	}
	nilLog.Annotate("x", "g", "c", map[string]float64{"k": 1}) // must not panic
	doc.Reset()
	if err := log.WriteJSON(&doc, "fig1"); err != nil {
		t.Fatal(err)
	}
	if err := ValidateResultJSON(doc.Bytes()); err != nil {
		t.Fatalf("annotated log does not round-trip: %v", err)
	}
}

// TestMeasurementStatistics checks the new summary fields directly.
func TestMeasurementStatistics(t *testing.T) {
	var m Measurement
	m.fillFrom([]float64{3, 1, 2})
	if m.Millis != 1 || m.P50Millis != 2 || m.MeanMillis != 2 {
		t.Fatalf("min/p50/mean = %v/%v/%v", m.Millis, m.P50Millis, m.MeanMillis)
	}
	if m.StddevMillis <= 0.8 || m.StddevMillis >= 0.9 { // √(2/3) ≈ 0.816
		t.Fatalf("stddev = %v, want ≈0.816", m.StddevMillis)
	}
	var even Measurement
	even.fillFrom([]float64{4, 2})
	if even.P50Millis != 3 {
		t.Fatalf("even-count median = %v, want 3", even.P50Millis)
	}
	var single Measurement
	single.fillFrom([]float64{5})
	if single.Millis != 5 || single.StddevMillis != 0 {
		t.Fatalf("single sample: %+v", single)
	}
}
