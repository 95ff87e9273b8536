package obs

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestStatsJSONKeySet pins the full stats/v6 key set: a Stats in which
// every block is non-zero marshals to exactly the key paths listed in
// testdata/stats_v6_keys.txt. A renamed, dropped or added field fails
// here; the list changes only with a deliberate schema change.
func TestStatsJSONKeySet(t *testing.T) {
	s := Stats{
		Schema:  StatsSchema,
		Runs:    1,
		Phases:  []PhaseStats{{Phase: PhaseExecKernel.String(), Millis: 1.5, Count: 1}},
		Workers: []WorkerStats{{Worker: 0, CounterSet: CounterSet{1, 2, 3, 4, 5, 6}}},
		Accum:   AccumCounters{1, 2, 3, 4, 5},
		Pool:    PoolCounters{1, 2, 3, 4, 5, 6, 7, 8},
		Sched:   SchedCounters{1, 2, 3, 4, 5, 6},
	}
	s.finalize()
	data, err := MarshalJSONBytes(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateStatsJSON(data); err != nil {
		t.Fatalf("round trip: %v\n%s", err, data)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	jsonKeyPaths(doc, "", seen)
	got := make([]string, 0, len(seen))
	for p := range seen {
		got = append(got, p)
	}
	sort.Strings(got)

	raw, err := os.ReadFile("testdata/stats_v6_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stats/v6 key paths drifted:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// jsonKeyPaths adds the dotted path of every leaf under v to seen;
// array elements contribute "[]" so a list's element keys appear once.
func jsonKeyPaths(v any, prefix string, seen map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			jsonKeyPaths(child, p, seen)
		}
	case []any:
		for _, child := range v {
			jsonKeyPaths(child, prefix+"[]", seen)
		}
	default:
		seen[prefix] = true
	}
}
