package obs

import (
	"strings"
	"testing"
)

// These regression tests pin the resilience blocks of the human table
// and of snapshot subtraction: retry-ladder counters, workspace
// quarantines and online-κ recalibration must render when present, stay
// silent when absent, and subtract per-block under Stats.Sub (with the
// κ gauge carrying over rather than subtracting).

// recordPool records a pool delta through a run scope that does not
// complete, so it adds no run.
func recordPool(r *Recorder, p PoolCounters) {
	s := r.StartRun()
	s.AddPool(p)
	s.End()
}

func renderedTable(s Stats) string {
	var sb strings.Builder
	s.WriteTable(&sb)
	return sb.String()
}

func TestWriteTableRendersResilienceBlocks(t *testing.T) {
	r := NewRecorder()
	r.AddRetry(RetryCounters{Attempts: 3, Retries: 2, Degradations: 1, Failures: 1, Stalls: 1})
	r.AddRecal(RecalCounters{Updates: 4, Explorations: 2, Recenters: 1, Snapbacks: 1, KappaLast: 2.25})
	recordPool(r, PoolCounters{Hits: 5, Misses: 1, Quarantined: 2, PlanHits: 3, PlanMisses: 1})
	table := renderedTable(r.Stats())

	for _, want := range []string{
		"retry: attempts=3 retries=2 degradations=1 failures=1 stalls=1",
		"recal: updates=4 explorations=2 recenters=1 snapbacks=1 κ=2.25",
		"quarantined=2",
		"plan hits/misses=3/1",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestWriteTableOmitsQuietBlocks(t *testing.T) {
	r := NewRecorder()
	recordRun(r, func(*RunScope) {})
	table := renderedTable(r.Stats())
	for _, absent := range []string{"retry:", "recal:", "pool:"} {
		if strings.Contains(table, absent) {
			t.Errorf("quiet recorder renders %q:\n%s", absent, table)
		}
	}
}

// TestWriteTableQuarantineOnlyPool pins the pool-line gate: a pool whose
// only activity is quarantines (a poisoned run on an otherwise idle
// engine) must still render.
func TestWriteTableQuarantineOnlyPool(t *testing.T) {
	r := NewRecorder()
	recordPool(r, PoolCounters{Quarantined: 1})
	if table := renderedTable(r.Stats()); !strings.Contains(table, "quarantined=1") {
		t.Fatalf("quarantine-only pool not rendered:\n%s", table)
	}
}

func TestStatsSubResilienceBlocks(t *testing.T) {
	r := NewRecorder()
	r.AddRetry(RetryCounters{Attempts: 2, Retries: 1, Stalls: 1})
	r.AddRecal(RecalCounters{Updates: 3, KappaLast: 1.5})
	recordPool(r, PoolCounters{Hits: 4, Quarantined: 1})
	before := r.Stats()

	r.AddRetry(RetryCounters{Attempts: 3, Degradations: 2, Failures: 1})
	r.AddRecal(RecalCounters{Updates: 2, Snapbacks: 1, KappaLast: 2.5})
	recordPool(r, PoolCounters{Hits: 6, Quarantined: 2})

	delta := r.Stats().Sub(before)
	if delta.Retry != (RetryCounters{Attempts: 3, Degradations: 2, Failures: 1}) {
		t.Fatalf("retry delta = %+v", delta.Retry)
	}
	if delta.Recal.Updates != 2 || delta.Recal.Snapbacks != 1 {
		t.Fatalf("recal delta = %+v", delta.Recal)
	}
	// KappaLast is a gauge: the current value carries over, it does not
	// subtract to a meaningless difference.
	if delta.Recal.KappaLast != 2.5 {
		t.Fatalf("kappa gauge in delta = %v, want 2.5 (carry-over)", delta.Recal.KappaLast)
	}
	if delta.Pool.Hits != 6 || delta.Pool.Quarantined != 2 {
		t.Fatalf("pool delta = %+v", delta.Pool)
	}
	// A delta renders like any snapshot.
	table := renderedTable(delta)
	if !strings.Contains(table, "retry: attempts=3") || !strings.Contains(table, "κ=2.5") {
		t.Fatalf("delta table:\n%s", table)
	}
}
