package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ctrlguard/internal/dist"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
)

// Every campaign runs through the shard coordinator, dist.Run: a
// fixed-count campaign as one run, a precision-driven one as a loop of
// fixed-count batches that goofi.RunUntilPrecision drives. Without
// executors a run is one shard on this process's engine (dist.Engine).
// With executors configured — slots over a pool of long-lived local
// ctrlexec processes and/or remote HTTP executors that registered
// themselves — the plan is split into contiguous shards and leased
// out, and the dist package's lease machinery recovers from any
// executor death mid-shard. Either way every record streams into a
// per-shard segment under <id>.shards/ (<id>.shards/b<k>/ for batch
// k), the resume source, and the merged result is byte-identical to a
// plain goofi run, so progress, persistence, caching, stats and resume
// have one implementation.

// execTTL is how long a remote executor registration stays live without
// a heartbeat re-POST (ctrlexec beats every 5s).
const execTTL = 15 * time.Second

// execEntry is one registered remote executor.
type execEntry struct {
	Name string    `json:"name"`
	URL  string    `json:"url"`
	Seen time.Time `json:"seen"`
}

// execRegistry tracks remote executors by name. Registration and
// heartbeat are the same idempotent upsert; entries expire lazily when
// read after going execTTL without one.
type execRegistry struct {
	mu  sync.Mutex
	ttl time.Duration
	m   map[string]execEntry
}

func newExecRegistry(ttl time.Duration) *execRegistry {
	if ttl <= 0 {
		ttl = execTTL
	}
	return &execRegistry{ttl: ttl, m: make(map[string]execEntry)}
}

func (r *execRegistry) upsert(name, url string) execEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := execEntry{Name: name, URL: url, Seen: time.Now()}
	r.m[name] = e
	return e
}

func (r *execRegistry) remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.m[name]
	delete(r.m, name)
	return ok
}

// live returns the unexpired registrations, pruning the rest, sorted by
// name for stable executor ordering.
func (r *execRegistry) live() []execEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := time.Now().Add(-r.ttl)
	out := make([]execEntry, 0, len(r.m))
	for name, e := range r.m {
		if e.Seen.Before(cutoff) {
			delete(r.m, name)
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// executors picks where a run of n experiments executes and how large
// its shards are: the configured local slots over the manager's pool
// of ctrlexec processes plus every live remote registration at lease
// time, or, with neither, this process's engine running the whole plan
// as one shard.
func (m *Manager) executors(n int) ([]dist.Executor, int) {
	var out []dist.Executor
	for i := 0; i < m.opts.Executors; i++ {
		out = append(out, &dist.Proc{Pool: m.pool, Tag: fmt.Sprintf("local-%d", i+1)})
	}
	for _, e := range m.registry.live() {
		out = append(out, &dist.HTTP{URL: e.URL, Tag: e.Name})
	}
	if len(out) == 0 {
		return []dist.Executor{dist.Engine{Configure: m.opts.ConfigHook}}, n
	}
	return out, m.opts.ShardSize
}

// segmentDir is where a campaign's live record segments go.
func (m *Manager) segmentDir(c *Campaign) string {
	return filepath.Join(m.opts.DataDir, c.ID+".shards")
}

// recordPath is where a finished campaign's records go.
func (m *Manager) recordPath(c *Campaign) string { return filepath.Join(m.opts.DataDir, c.ID+".jsonl") }

// batchDir is where batch b of a precision-driven campaign keeps its
// segments, with batch-local IDs, inside the campaign's segDir.
func batchDir(segDir string, b int) string { return filepath.Join(segDir, fmt.Sprintf("b%d", b)) }

// startRun points a starting campaign at its segment directory. A
// resumed campaign keeps the segments as its resume source; a fresh
// submission must not inherit files from an earlier unjournaled run
// under the same ID.
func (m *Manager) startRun(c *Campaign, resumed bool) string {
	dir := m.segmentDir(c)
	if !resumed {
		os.RemoveAll(dir)
		os.Remove(m.recordPath(c))
	}
	c.mu.Lock()
	c.segDir, c.dataPath, c.file = dir, "", nil
	c.mu.Unlock()
	return dir
}

// distRun executes the fixed-count spec — campaign c, or its batch
// whose experiment IDs start at first — through dist.Run with its
// segments under segDir (kept until c concludes), reporting each record
// to progress with its campaign-wide ID and count.
func (m *Manager) distRun(ctx context.Context, c *Campaign, spec goofi.CampaignSpec, segDir string, first int, progress func(goofi.Record, int)) (*goofi.Result, error) {
	executors, shardSize := m.executors(spec.Experiments)
	opts := dist.Options{
		ShardSize:  shardSize,
		LeaseTTL:   m.opts.LeaseTTL,
		SegmentDir: segDir,
		Campaign:   c.ID,
		Logger:     m.opts.Logger,
		TaskHook:   m.opts.DistTaskHook,
		OnRecord: func(rec goofi.Record, done int) {
			m.metrics.ExperimentsTotal.Add(1)
			progress(goofi.ShiftID(rec, first), first+done)
		},
	}
	if !c.Spec.Sequential() {
		// A resumed campaign skips the shards its journal replayed as
		// complete; a precision batch resumes from its segments alone.
		c.mu.Lock()
		opts.CompletedShards = c.shardsDone
		c.mu.Unlock()
	}
	// Leases to executors are journaled so a restarted coordinator skips
	// finished shards. An in-process run's single shard finishes with
	// it, so journaling its lease would only add fsyncs; and its engine
	// cannot die apart from this process, so an error it returns is the
	// engine's own, deterministic, and not worth retrying.
	if _, inproc := executors[0].(dist.Engine); inproc {
		opts.MaxAttempts = 1
	} else {
		m.opts.Logger.Printf("campaign %s: distributing across %d executors (shard size %d)",
			c.ID, len(executors), shardSize)
		opts.Journal = func(e journal.Entry) {
			switch e.Type {
			case journal.EventShardLeased:
				m.metrics.ShardsLeased.Add(1)
			case journal.EventShardCompleted:
				m.metrics.ShardsCompleted.Add(1)
			case journal.EventShardExpired:
				m.metrics.ShardsExpired.Add(1)
			}
			m.appendJournal(e)
		}
	}
	return dist.Run(ctx, spec, executors, opts)
}

// runCampaign executes one campaign: a fixed-count one as a single
// distRun, a precision-driven one as a loop of fixed-count batches
// (see runPrecision).
func (m *Manager) runCampaign(ctx context.Context, c *Campaign, resumed bool) {
	segDir := m.startRun(c, resumed)
	progress := m.progressFunc(c)
	var (
		res *goofi.Result
		err error
	)
	if c.Spec.Sequential() {
		res, err = m.runPrecision(ctx, c, segDir, progress)
	} else {
		res, err = m.distRun(ctx, c, c.Spec, segDir, 0, progress)
	}
	if res == nil {
		res = new(goofi.Result)
	}
	m.metrics.ExperimentsResumed.Add(int64(res.Faults.Resumed))
	m.noteStats(c, res.Stats)
	// Salvaged segments count towards progress as they are opened,
	// but their outcomes arrive only with the result.
	outcomes := make(map[string]int)
	for _, rec := range res.Records {
		outcomes[rec.Outcome]++
	}
	c.mu.Lock()
	c.done, c.outcomes = len(res.Records), outcomes
	c.mu.Unlock()
	m.conclude(c, res, err)
}

// runPrecision executes a precision-driven campaign: goofi's stopping
// rule runs batch b as a plain fixed-count campaign through distRun,
// with its segments under <segDir>/b<k>/ as its resume source.
func (m *Manager) runPrecision(ctx context.Context, c *Campaign, segDir string, progress func(goofi.Record, int)) (*goofi.Result, error) {
	cfg, err := c.Spec.Resolve()
	if err != nil { // validated at Submit; only a programming error lands here
		return nil, err
	}
	res, err := goofi.RunUntilPrecisionContext(ctx, goofi.PrecisionConfig{
		Campaign:        cfg,
		TargetHalfWidth: c.Spec.Precision,
		MaxExperiments:  c.Spec.MaxExperiments,
		RunBatch: func(ctx context.Context, b int, batch goofi.Config) (*goofi.Result, error) {
			spec := c.Spec
			spec.Precision, spec.MaxExperiments = 0, 0
			spec.Experiments, spec.Seed = batch.Experiments, batch.Seed
			return m.distRun(ctx, c, spec, batchDir(segDir, b), b*goofi.DefaultBatchSize, progress)
		},
	})
	if res == nil {
		return nil, err
	}
	return &res.Result, err
}

// progressFunc returns the callback a running campaign reports each
// record through, with the campaign-wide count of records done:
// subscribers hear every one, the journal at most one entry per
// journalProgressEvery (resume correctness comes from the segments).
func (m *Manager) progressFunc(c *Campaign) func(rec goofi.Record, done int) {
	var last time.Time // guarded by c.mu
	return func(rec goofi.Record, done int) {
		c.mu.Lock()
		c.done = max(c.done, done) // shards ingest concurrently
		c.outcomes[rec.Outcome]++
		c.broadcastLocked(c.eventLocked("progress"))
		var e *journal.Entry
		if time.Since(last) >= journalProgressEvery {
			last = time.Now()
			e = &journal.Entry{Job: c.ID, Type: journal.EventProgress,
				Done: c.done, Total: c.total, Outcomes: copyCounts(c.outcomes)}
		}
		c.mu.Unlock()
		if e != nil {
			m.appendJournal(*e)
		}
	}
}

// noteStats publishes a run's stats on the campaign view and its
// pruning and detector counts in the process metrics (finalize counts
// its fault handling).
func (m *Manager) noteStats(c *Campaign, s goofi.Stats) {
	if p := s.Prune; p != nil {
		m.metrics.ExperimentsPlanned.Add(int64(p.Planned))
		m.metrics.ExperimentsSimulated.Add(int64(p.Simulated))
		m.metrics.ExperimentsPrunedDead.Add(int64(p.PrunedDead))
		m.metrics.ExperimentsCollapsed.Add(int64(p.Collapsed))
	}
	if d := s.Detect; d != nil {
		m.metrics.DetectorCFEDetected.Add(int64(d.CFEDetected))
		m.metrics.DetectorAutomatonDetected.Add(int64(d.AutomatonDetected))
		m.metrics.DetectorFalsePositives.Add(int64(d.FalsePositives))
	}
	c.mu.Lock()
	c.stats = s
	c.mu.Unlock()
}

// conclude settles a campaign whose run returned res. A campaign merely
// interrupted by shutdown keeps its segments for the next start to
// resume from. Otherwise its records — complete, or the partial set of
// a cancelled or failed run — become the canonical experiment-ordered
// <id>.jsonl, the segments go, and a clean result is memoized. A chaos
// kill persists nothing, exactly like a real SIGKILL.
func (m *Manager) conclude(c *Campaign, res *goofi.Result, runErr error) {
	if !m.killed.Load() && !m.interrupted(c, runErr) {
		var file *recordFile
		if len(res.Records) > 0 {
			var err error
			if file, err = saveRecordFile(m.recordPath(c), res.Records); err != nil && runErr == nil {
				runErr = err
			}
		}
		if file != nil || len(res.Records) == 0 {
			// The file replaces the segments as the campaign's records.
			c.mu.Lock()
			segDir := c.segDir
			c.segDir = ""
			if file != nil {
				c.dataPath, c.file = file.path, file
			}
			c.mu.Unlock()
			os.RemoveAll(segDir)
		}
		if runErr == nil && file != nil {
			m.cachePut(c, res.Faults, file.path)
		}
	}
	m.finalize(c, runErr)
}

// --- executor registry HTTP endpoints -------------------------------

// handleExecRegister is POST /api/v1/executors: a remote ctrlexec
// announces (or re-announces — this doubles as the heartbeat) itself.
func (s *Server) handleExecRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		URL  string `json:"url"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad executor registration: %v", err)
		return
	}
	if req.Name == "" || req.URL == "" {
		s.writeError(w, http.StatusBadRequest, "executor registration needs name and url")
		return
	}
	e := s.mgr.registry.upsert(req.Name, req.URL)
	s.mgr.metrics.ExecutorsRegistered.Add(1)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"name":    e.Name,
		"url":     e.URL,
		"ttl":     s.mgr.registry.ttl.String(),
		"expires": e.Seen.Add(s.mgr.registry.ttl),
	})
}

// handleExecList is GET /api/v1/executors: the live registrations.
func (s *Server) handleExecList(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"executors": s.mgr.registry.live()})
}

// handleExecDelete is DELETE /api/v1/executors/{name}: a clean
// deregistration on executor shutdown.
func (s *Server) handleExecDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.mgr.registry.remove(name) {
		s.writeError(w, http.StatusNotFound, "no executor %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
