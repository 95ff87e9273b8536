package obs

import (
	"strings"
	"testing"
)

// These regression tests pin the resilience block of the human table:
// workspace quarantines must render when present and stay silent when
// absent.

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
	recordPool(r, PoolCounters{Hits: 5, Misses: 1, Quarantined: 2, PlanHits: 3, PlanMisses: 1})
	table := renderedTable(r.Stats())

	for _, want := range []string{
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
	for _, absent := range []string{"pool:", "sched:"} {
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

// TestWriteTableRendersFusedBlock pins the fused line: a run with only
// a stream sink renders it in full, and a recorder with no fused run
// renders none.
func TestWriteTableRendersFusedBlock(t *testing.T) {
	r := NewRecorder()
	recordRun(r, func(s *RunScope) {
		s.AddFused(FusedCounters{StreamRuns: 1, MidEntries: 4, MidBytes: 48})
	})
	want := "fused: selects=0 streams=1 mid entries=4 (48 bytes) select kept/dropped=0/0"
	if table := renderedTable(r.Stats()); !strings.Contains(table, want) {
		t.Errorf("table missing %q:\n%s", want, table)
	}
	quiet := NewRecorder()
	recordRun(quiet, func(*RunScope) {})
	if table := renderedTable(quiet.Stats()); strings.Contains(table, "fused:") {
		t.Errorf("quiet recorder renders the fused line:\n%s", table)
	}
}
