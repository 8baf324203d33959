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
//	GET    /metrics                      expvar campaign metrics
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
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/tenant"
)

// Config configures a Server.
type Config struct {
	// Addr is the listen address for ListenAndServe (default :8077).
	Addr string

	// Workers is the number of campaigns executed concurrently
	// (default 1 — individual campaigns already parallelise their
	// experiments across cores).
	Workers int

	// QueueDepth bounds the number of campaigns waiting to run
	// (default 16); submissions beyond it are rejected with 503.
	QueueDepth int

	// DataDir receives each campaign's records: appended live to
	// per-shard segments under <id>.shards/ while the campaign runs,
	// then written atomically as the experiment-ordered <id>.jsonl, from
	// which /records, /report and /trace serve them. Empty means a
	// private temporary directory, removed by Close.
	DataDir string

	// JournalDir, if set, holds journal.wal — the fsync'd write-ahead
	// journal of job lifecycle events. A journal-backed server replays
	// it on start and resumes every campaign a crash or shutdown
	// interrupted.
	JournalDir string

	// NoResume keeps journal replay (finished jobs stay listed) but
	// leaves interrupted campaigns parked instead of re-running them.
	NoResume bool

	// Logger receives request and lifecycle logs (default
	// log.Default).
	Logger *log.Logger

	// ConfigHook is applied to every campaign's resolved goofi.Config
	// just before it runs. TEST-ONLY: the chaos harness injects worker
	// panics and hangs through it; leave nil in production.
	ConfigHook func(*goofi.Config)

	// Executors, when positive, shards campaigns (a precision-driven
	// one batch by batch) across this many local ctrlexec processes
	// (plus any remote executors that register themselves) instead of
	// running each as one in-process shard. New starts the processes
	// and Close stops them. Requires ExecBin.
	Executors int

	// ExecBin is the ctrlexec binary the local executors run.
	ExecBin string

	// ShardSize is the experiments-per-shard for distributed campaigns
	// (0 = dist.DefaultShardSize; New rejects a negative value or one
	// past goofi.ExperimentLimit).
	ShardSize int

	// LeaseTTL overrides the shard lease TTL for distributed campaigns
	// (default dist.DefaultLeaseTTL).
	LeaseTTL time.Duration

	// ExecTTL overrides how long a remote executor registration stays
	// live without a heartbeat (default 15s). The server hands the
	// value to executors in the registration response so both sides
	// agree on the heartbeat cadence.
	ExecTTL time.Duration

	// Tenants configures multi-tenant admission: API keys, rate
	// limits, quotas, and fair-share weights. Empty runs the server
	// open — every request is the default tenant, unlimited.
	Tenants []tenant.Tenant

	// CacheDir, if set, enables content-addressed campaign
	// memoization: duplicate submissions of a completed deterministic
	// spec are served the original run's bytes without re-running.
	CacheDir string

	// CacheMaxBytes bounds the memoization cache (0 = unbounded).
	CacheMaxBytes int64

	// JournalMaxBytes triggers automatic journal compaction once the
	// write-ahead journal grows past it (0 = startup-only compaction).
	JournalMaxBytes int64

	// RetainAge, if positive, lets the retention sweep delete the
	// record files of terminal campaigns finished longer ago than this.
	RetainAge time.Duration

	// RetainBytes, if positive, bounds the total record bytes of
	// terminal campaigns; oldest-finished files are deleted first.
	RetainBytes int64
}

// Server is the ctrlguardd HTTP service.
type Server struct {
	cfg Config
	mgr *Manager
	mux *http.ServeMux
	log *log.Logger
}

// New builds a Server and starts its campaign worker pool. With a
// JournalDir, the prior process's journal is replayed first and
// interrupted campaigns are re-enqueued to resume.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = ":8077"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	journalPath := ""
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, err
		}
		journalPath = filepath.Join(cfg.JournalDir, "journal.wal")
	}
	mgr, err := NewManager(Options{
		Workers:         cfg.Workers,
		QueueDepth:      cfg.QueueDepth,
		DataDir:         cfg.DataDir,
		JournalPath:     journalPath,
		NoResume:        cfg.NoResume,
		Logger:          cfg.Logger,
		ConfigHook:      cfg.ConfigHook,
		Executors:       cfg.Executors,
		ExecBin:         cfg.ExecBin,
		ShardSize:       cfg.ShardSize,
		LeaseTTL:        cfg.LeaseTTL,
		ExecTTL:         cfg.ExecTTL,
		Tenants:         cfg.Tenants,
		CacheDir:        cfg.CacheDir,
		CacheMaxBytes:   cfg.CacheMaxBytes,
		JournalMaxBytes: cfg.JournalMaxBytes,
		RetainAge:       cfg.RetainAge,
		RetainBytes:     cfg.RetainBytes,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		mgr: mgr,
		mux: http.NewServeMux(),
		log: cfg.Logger,
	}
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

// ListenAndServe serves until ctx is cancelled, then shuts down
// gracefully: in-flight requests get a drain window while running
// campaigns stop at their next experiment boundary and are journaled
// as interrupted for the next start to resume.
func (s *Server) ListenAndServe(ctx context.Context) error {
	srv := &http.Server{Addr: s.cfg.Addr, Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	s.log.Printf("ctrlguardd listening on %s (%d campaign workers, queue depth %d)",
		s.cfg.Addr, s.cfg.Workers, s.cfg.QueueDepth)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	s.log.Printf("ctrlguardd shutting down")
	s.mgr.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}
