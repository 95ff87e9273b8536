package telemetry

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"maskedspgemm/internal/obs"
)

// Handler returns the debug mux:
//
//	/metrics      Prometheus text exposition (format 0.0.4)
//	/stats        stats/v3 JSON snapshot of the attached recorder
//	/flight       forced flight-recorder dump (flightrec/v2 JSON)
//	/healthz      200 when every attached engine passes SelfCheck
//	/debug/vars   expvar
//	/debug/pprof  net/http/pprof
//
// Handlers read registry state; none of them mutate anything except
// /flight, which bumps nothing (a forced dump is rendered to the
// response, not written to disk).
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := t.WriteMetrics(w); err != nil {
			// Headers are gone; all we can do is log-by-response.
			fmt.Fprintf(w, "# error: %v\n", err)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteJSON(w, t.statsRecorder().Stats()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteJSON(w, t.BuildFailureDump("forced", nil)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		for _, e := range t.attachedEngines() {
			if err := e.SelfCheck(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is one running debug listener.
type Server struct {
	srv  *http.Server
	addr string
	// done is closed when the serve goroutine returns, so Close can
	// join it instead of racing process exit against the listener
	// teardown.
	done chan struct{}
}

// Addr is the bound listen address (host:port, with the real port when
// the caller asked for :0).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.addr
}

// URL is the server's http base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	host := s.addr
	// A wildcard bind is not dialable; rewrite to loopback.
	if strings.HasPrefix(host, "0.0.0.0:") || strings.HasPrefix(host, "[::]:") {
		_, port, err := net.SplitHostPort(host)
		if err == nil {
			host = net.JoinHostPort("127.0.0.1", port)
		}
	}
	return "http://" + host
}

// Close shuts the listener down, waiting briefly for in-flight
// requests, then joins the serve goroutine.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	return err
}

// Start binds addr (":0" picks a free port) and serves the debug
// handler until Close. Serving happens on a background goroutine; the
// returned Server reports the bound address immediately.
func (t *Telemetry) Start(addr string) (*Server, error) {
	if t == nil {
		return nil, fmt.Errorf("telemetry: Start on a nil registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: t.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s := &Server{srv: srv, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		// Serve returns on Shutdown (Close) with ErrServerClosed — the
		// normal path; anything else has no channel to surface through
		// (the caller moved on), so drop it — the smoke gate's scrapes
		// would fail loudly anyway. Closing done joins the goroutine to
		// Close.
		defer close(s.done)
		_ = srv.Serve(ln)
	}()
	return s, nil
}

// SelfCheck scrapes a running debug server and verifies the acceptance
// contract end to end: /metrics parses as exposition format and carries
// every required series with at least one completed run, /stats is a
// schema-valid stats/v3 document, /flight is a schema-valid flightrec/v2
// document, and /healthz reports healthy. Used by the CLI smoke gate
// (`spgemm-bench -telemetry-check`).
func SelfCheck(baseURL string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) ([]byte, error) {
		resp, err := client.Get(baseURL + path)
		if err != nil {
			return nil, fmt.Errorf("telemetry: GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
		if err != nil {
			return nil, fmt.Errorf("telemetry: read %s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("telemetry: GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
		}
		return body, nil
	}

	metrics, err := get("/metrics")
	if err != nil {
		return err
	}
	samples, err := ParseExposition(strings.NewReader(string(metrics)))
	if err != nil {
		return err
	}
	if missing := MissingSeries(samples, RequiredSeries); len(missing) > 0 {
		return fmt.Errorf("telemetry: /metrics missing required series: %s", strings.Join(missing, ", "))
	}
	runs, ok := FindSample(samples, "spgemm_runs_total")
	if !ok || runs.Value <= 0 {
		return fmt.Errorf("telemetry: /metrics reports no completed runs (spgemm_runs_total=%g)", runs.Value)
	}

	stats, err := get("/stats")
	if err != nil {
		return err
	}
	if err := obs.ValidateStatsJSON(stats); err != nil {
		return fmt.Errorf("telemetry: /stats: %w", err)
	}

	flight, err := get("/flight")
	if err != nil {
		return err
	}
	if err := ValidateFlightJSON(flight); err != nil {
		return fmt.Errorf("telemetry: /flight: %w", err)
	}

	if _, err := get("/healthz"); err != nil {
		return err
	}
	return nil
}
