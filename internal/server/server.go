// Package server implements ctrlguardd, the fault-injection campaign
// service. It plays the role GOOFI's interactive tool played in the
// paper — campaigns are queued, executed experiment-by-experiment, and
// every record is persisted for later analysis — behind a small JSON
// HTTP API:
//
//	POST   /api/v1/campaigns             submit a campaign spec
//	GET    /api/v1/campaigns             list campaigns
//	GET    /api/v1/campaigns/{id}        one campaign's state
//	DELETE /api/v1/campaigns/{id}        cancel a campaign
//	GET    /api/v1/campaigns/{id}/events live progress (NDJSON or SSE)
//	GET    /api/v1/campaigns/{id}/report query the stored records
//	GET    /api/v1/campaigns/{id}/records
//	                                     page through raw records
//	                                     (?offset=&limit=)
//	GET    /api/v1/campaigns/{id}/experiments/{n}/trace
//	                                     replay experiment n in detail
//	                                     mode and serve its propagation
//	                                     trace (json, bin, svg, text)
//	POST   /api/v1/tune                  submit a design-space tuning job
//	GET    /api/v1/tune/{id}/result      a finished tune job's outcome
//	GET    /api/v1/variants              available workload variants
//	POST   /api/v1/executors             remote executor registration
//	                                     and heartbeat (same upsert)
//	GET    /api/v1/executors             live remote executors
//	DELETE /api/v1/executors/{name}      deregister an executor
//	GET    /metrics                      this daemon's counters and
//	                                     gauges derived from its jobs
//	GET    /healthz                      liveness probe
//	GET    /readyz                       readiness probe (503 while
//	                                     draining) with queue depth and
//	                                     per-tenant usage
//
// With Tenants configured, submissions authenticate via the
// Authorization header and pass per-tenant admission control: token
// buckets (429 + Retry-After), quotas on outstanding work (429), and
// the bounded weighted fair-share queue (503 + Retry-After). With a
// CacheDir, completed deterministic campaigns are memoized by content
// address and duplicate submissions are served without re-running.
package server

import (
	"context"
	"net/http"
	"time"
)

// Server is the ctrlguardd HTTP service.
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// New builds a Server and starts its campaign worker pool. With a
// JournalDir, the prior process's journal is replayed first and
// interrupted campaigns are re-enqueued to resume.
func New(opts Options) (*Server, error) {
	mgr, err := NewManager(opts)
	if err != nil {
		return nil, err
	}
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /api/v1/campaigns/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/records", s.handleRecords)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/experiments/{n}/trace", s.handleTrace)
	s.mux.HandleFunc("POST /api/v1/tune", s.handleSubmitTune)
	s.mux.HandleFunc("GET /api/v1/tune/{id}/result", s.handleTuneResult)
	s.mux.HandleFunc("GET /api/v1/variants", s.handleVariants)
	s.mux.HandleFunc("POST /api/v1/executors", s.handleExecRegister)
	s.mux.HandleFunc("GET /api/v1/executors", s.handleExecList)
	s.mux.HandleFunc("DELETE /api/v1/executors/{name}", s.handleExecDelete)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
}

// handleReady is the readiness probe: 200 while the server accepts
// work, 503 once a graceful drain begins (so load balancers stop
// routing submissions to a stopping instance). The body carries the
// queue and per-tenant usage snapshot either way.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"queued":     s.mgr.QueueLen(),
		"queueDepth": s.mgr.QueueDepth(),
		"usage":      s.mgr.UsageSnapshot(),
	}
	if s.mgr.Draining() {
		body["status"] = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ok"
	s.writeJSON(w, http.StatusOK, body)
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool gracefully: running and queued campaigns
// are journaled as interrupted so a journal-backed restart resumes
// them from their persisted records.
func (s *Server) Close() { s.mgr.Close() }

// ListenAndServe serves on addr until ctx is cancelled, then shuts
// down gracefully: in-flight requests get a drain window while running
// campaigns stop at their next experiment boundary and are journaled
// as interrupted for the next start to resume.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	opts := s.mgr.opts
	opts.Logger.Printf("ctrlguardd listening on %s (%d campaign workers, queue depth %d)",
		addr, opts.Workers, opts.QueueDepth)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	opts.Logger.Printf("ctrlguardd shutting down")
	s.mgr.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}
