package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maskedspgemm/internal/obs"
)

// TestServerEndpoints serves a populated registry and exercises every
// endpoint plus the SelfCheck contract the CLI smoke gate relies on.
func TestServerEndpoints(t *testing.T) {
	clk := &testClock{t: 1}
	tel := testTelemetry(t, clk)
	rec := obs.NewRecorder()
	completeRuns(rec, 1)
	tel.AttachRecorder(rec)
	tel.RecordRun(2 * time.Millisecond)
	tel.Event(1, obs.EventRunStart, obs.PhaseNone, 0, 0)

	srv, err := tel.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" || !strings.HasPrefix(srv.URL(), "http://127.0.0.1:") {
		t.Fatalf("addr %q url %q", srv.Addr(), srv.URL())
	}

	if err := SelfCheck(srv.URL()); err != nil {
		t.Fatalf("SelfCheck on a healthy server: %v", err)
	}

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "spgemm_runs_total 1") {
		t.Fatalf("/metrics missing runs counter:\n%s", body)
	}

	body, ctype = get("/stats")
	if ctype != "application/json" {
		t.Fatalf("/stats content type %q", ctype)
	}
	if err := obs.ValidateStatsJSON([]byte(body)); err != nil {
		t.Fatalf("/stats: %v", err)
	}

	body, _ = get("/flight")
	if err := ValidateFlightJSON([]byte(body)); err != nil {
		t.Fatalf("/flight: %v", err)
	}
	if !strings.Contains(body, `"reason": "forced"`) {
		t.Fatalf("/flight reason not forced:\n%s", body)
	}
	if tel.Dumps() != 0 {
		t.Fatalf("/flight wrote a disk dump (%d), should only render", tel.Dumps())
	}

	if body, _ = get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz body %q", body)
	}
	if body, _ = get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars missing expvar memstats")
	}
	if body, _ = get("/debug/pprof/cmdline"); body == "" {
		t.Fatalf("/debug/pprof/cmdline empty")
	}
}

// TestSelfCheckRejectsColdServer pins the gate's teeth: a registry with
// no completed runs must fail the self-check, so a smoke job that timed
// nothing cannot pass vacuously.
func TestSelfCheckRejectsColdServer(t *testing.T) {
	clk := &testClock{t: 1}
	tel := testTelemetry(t, clk)
	srv, err := tel.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	err = SelfCheck(srv.URL())
	if err == nil || !strings.Contains(err.Error(), "no completed runs") {
		t.Fatalf("SelfCheck on a cold server = %v, want no-completed-runs failure", err)
	}
}

// TestSelfCheckRejectsBrokenMetrics pins that a served document failing
// the exposition parse or missing series fails the check.
func TestSelfCheckRejectsBrokenMetrics(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "spgemm_runs_total 5\n") // parses, but series missing
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	err := SelfCheck(ts.URL)
	if err == nil || !strings.Contains(err.Error(), "missing required series") {
		t.Fatalf("SelfCheck = %v, want missing-series failure", err)
	}
}

// TestURLRewritesWildcard pins that a wildcard bind is rewritten to a
// dialable loopback URL.
func TestURLRewritesWildcard(t *testing.T) {
	s := &Server{addr: "0.0.0.0:9999"}
	if got := s.URL(); got != "http://127.0.0.1:9999" {
		t.Fatalf("URL() = %q", got)
	}
	s = &Server{addr: "[::]:9999"}
	if got := s.URL(); got != "http://127.0.0.1:9999" {
		t.Fatalf("URL() = %q", got)
	}
	var nilSrv *Server
	if nilSrv.URL() != "" || nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Fatal("nil server accessors should be no-ops")
	}
}
