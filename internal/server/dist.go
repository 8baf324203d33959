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

// Every fixed-count campaign runs through the shard coordinator,
// dist.Run. Without executors the campaign is one shard on this
// process's engine (dist.Engine). With executors configured — local
// ctrlexec subprocesses and/or remote HTTP executors that registered
// themselves — the plan is split into contiguous shards and leased
// out, and the dist package's lease machinery recovers from any
// executor death mid-shard. Either way every record streams into a
// per-shard segment under <id>.shards/ (the resume source), and the
// merged result is byte-identical to a plain goofi run, so progress,
// persistence, caching, stats and resume have one implementation.

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

// executors picks where a campaign's shards run and how large they
// are: the configured local ctrlexec slots plus every live remote
// registration at lease time, or, with neither, this process's engine
// running the whole plan as one shard.
func (m *Manager) executors(c *Campaign) ([]dist.Executor, int) {
	var out []dist.Executor
	for i := 0; i < m.distWorkers; i++ {
		out = append(out, &dist.Proc{
			Bin:     m.execBin,
			Args:    m.execArgs,
			Tag:     fmt.Sprintf("local-%d", i+1),
			OnSpawn: m.spawnHook,
		})
	}
	for _, e := range m.registry.live() {
		out = append(out, &dist.HTTP{URL: e.URL, Tag: e.Name})
	}
	if len(out) == 0 {
		return []dist.Executor{dist.Engine{Configure: m.hook}}, c.Spec.Experiments
	}
	return out, m.shardSize
}

// segmentDir is where a campaign's live record segments go; empty
// without a data directory, when records stay in memory only.
func (m *Manager) segmentDir(c *Campaign) string {
	if m.dataDir == "" {
		return ""
	}
	return filepath.Join(m.dataDir, c.ID+".shards")
}

// startRun points a starting campaign at its segment directory. A
// resumed campaign keeps the segments as its resume source; a fresh
// submission must not inherit files from an earlier unjournaled run
// under the same ID.
func (m *Manager) startRun(c *Campaign, resumed bool) string {
	dir := m.segmentDir(c)
	if dir != "" && !resumed {
		os.RemoveAll(dir)
		os.Remove(filepath.Join(m.dataDir, c.ID+".jsonl"))
	}
	c.mu.Lock()
	c.segDir = dir
	c.dataPath = ""
	c.records = nil
	c.mu.Unlock()
	return dir
}

// runCampaign executes one fixed-count campaign through dist.Run. A
// resumed campaign skips shards journaled complete and resumes the
// rest from their salvaged segments.
func (m *Manager) runCampaign(ctx context.Context, c *Campaign, resumed bool) {
	segDir := m.startRun(c, resumed)
	c.mu.Lock()
	completed := c.shardsDone
	c.mu.Unlock()
	if !resumed {
		completed = nil
	}
	executors, shardSize := m.executors(c)
	progress := m.progressFunc(c)
	opts := dist.Options{
		ShardSize:       shardSize,
		LeaseTTL:        m.leaseTTL,
		SegmentDir:      segDir,
		Campaign:        c.ID,
		CompletedShards: completed,
		Logger:          m.logger,
		TaskHook:        m.distTaskHook,
		OnRecord: func(rec goofi.Record, done int) {
			metrics.ExperimentsTotal.Add(1)
			progress(rec, done)
		},
	}
	// Leases to executors are journaled so a restarted coordinator skips
	// finished shards. An in-process campaign's single shard finishes
	// with the campaign, so journaling its lease would only add fsyncs;
	// and its engine cannot die apart from this process, so an error it
	// returns is the engine's own, deterministic, and not worth retrying.
	if _, inproc := executors[0].(dist.Engine); inproc {
		opts.MaxAttempts = 1
	} else {
		m.logger.Printf("campaign %s: distributing across %d executors (shard size %d)",
			c.ID, len(executors), shardSize)
		opts.Journal = func(e journal.Entry) {
			switch e.Type {
			case journal.EventShardLeased:
				metrics.ShardsLeased.Add(1)
			case journal.EventShardCompleted:
				metrics.ShardsCompleted.Add(1)
			case journal.EventShardExpired:
				metrics.ShardsExpired.Add(1)
			}
			m.appendJournal(e)
		}
	}
	res, runErr := dist.Run(ctx, c.Spec, executors, opts)

	var recs []goofi.Record
	var faults goofi.FaultStats
	if res != nil {
		recs, faults = res.Records, res.Faults
		metrics.ExperimentsResumed.Add(int64(faults.Resumed))
		m.noteStats(c, res.Prune, res.Detect)
		// Salvaged segments count towards progress as the coordinator
		// opens them, but their outcomes arrive only with the result.
		outcomes := make(map[string]int)
		for _, rec := range recs {
			outcomes[rec.Outcome]++
		}
		c.mu.Lock()
		c.outcomes = outcomes
		c.mu.Unlock()
	}
	m.conclude(c, recs, faults, runErr)
}

// runSequential executes a precision-driven campaign on this process's
// engine. Its experiment count is decided as it runs, so it cannot be
// split into shards up front, but its records land in a segment under
// <id>.shards/ like every campaign's, and because batch b owns the
// stable experiment IDs [b·B, (b+1)·B) a resumed run reuses them.
func (m *Manager) runSequential(ctx context.Context, c *Campaign, resumed bool) {
	cfg, err := c.Spec.Resolve()
	if err != nil { // validated at Submit; only a programming error lands here
		m.finalize(c, nil, goofi.FaultStats{}, err, "")
		return
	}
	if m.hook != nil {
		m.hook(&cfg)
	}
	var seg *goofi.RecordAppender
	if segDir := m.startRun(c, resumed); segDir != "" {
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			m.logger.Printf("campaign %s: record segment unavailable: %v", c.ID, err)
		} else if seg, cfg.Resume, err = goofi.OpenRecordAppender(dist.SegmentPath(segDir, 0)); err != nil {
			m.logger.Printf("campaign %s: record segment unavailable: %v", c.ID, err)
		}
	}

	progress := m.progressFunc(c)
	done := 0
	cfg.OnResume = func(recs []goofi.Record) {
		metrics.ExperimentsResumed.Add(int64(len(recs)))
		for _, rec := range recs {
			done++
			progress(rec, done)
		}
	}
	cfg.OnRecord = func(rec goofi.Record) {
		metrics.ExperimentsTotal.Add(1)
		if seg != nil {
			if err := seg.Append(rec); err != nil {
				m.logger.Printf("campaign %s: record append failed: %v", c.ID, err)
				seg.Close()
				seg = nil
			}
		}
		done++
		progress(rec, done)
	}
	res, runErr := goofi.RunUntilPrecisionContext(ctx, goofi.PrecisionConfig{
		Campaign:        cfg,
		TargetHalfWidth: c.Spec.Precision,
		MaxExperiments:  c.Spec.MaxExperiments,
	})
	if seg != nil {
		if err := seg.Close(); err != nil {
			m.logger.Printf("campaign %s: record segment close failed: %v", c.ID, err)
		}
	}
	var recs []goofi.Record
	var faults goofi.FaultStats
	if res != nil {
		recs, faults = res.Records, res.Faults
		m.noteStats(c, res.Prune, res.Detect)
	}
	m.conclude(c, recs, faults, runErr)
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

// noteStats publishes a run's pruning and detector stats on the
// campaign view and in the process metrics.
func (m *Manager) noteStats(c *Campaign, p *goofi.PruneStats, d *goofi.DetectStats) {
	if p != nil {
		metrics.ExperimentsPlanned.Add(int64(p.Planned))
		metrics.ExperimentsSimulated.Add(int64(p.Simulated))
		metrics.ExperimentsPrunedDead.Add(int64(p.PrunedDead))
		metrics.ExperimentsCollapsed.Add(int64(p.Collapsed))
	}
	if d != nil {
		metrics.DetectorCFEDetected.Add(int64(d.CFEDetected))
		metrics.DetectorAutomatonDetected.Add(int64(d.AutomatonDetected))
		metrics.DetectorFalsePositives.Add(int64(d.FalsePositives))
	}
	c.mu.Lock()
	c.prune, c.detect = p, d
	c.mu.Unlock()
}

// conclude settles a campaign whose run returned. A campaign merely
// interrupted by shutdown keeps its segments for the next start to
// resume from. Otherwise its records — complete, or the partial set of
// a cancelled or failed run — become the canonical experiment-ordered
// <id>.jsonl, the segments go, and a clean result is memoized. A chaos
// kill persists nothing, exactly like a real SIGKILL.
func (m *Manager) conclude(c *Campaign, recs []goofi.Record, faults goofi.FaultStats, runErr error) {
	path := ""
	if !m.killed.Load() && !m.interrupted(c, runErr) {
		c.mu.Lock()
		segDir := c.segDir
		c.mu.Unlock()
		if m.dataDir != "" && len(recs) > 0 {
			path = filepath.Join(m.dataDir, c.ID+".jsonl")
			if err := goofi.SaveRecords(path, recs); err != nil {
				path = ""
				if runErr == nil {
					runErr = err
				}
			}
		}
		if segDir != "" && (path != "" || len(recs) == 0) {
			os.RemoveAll(segDir)
			c.mu.Lock()
			c.segDir = ""
			c.mu.Unlock()
		}
		if runErr == nil {
			m.cachePut(c, faults, recs, path)
		}
	}
	m.finalize(c, recs, faults, runErr, path)
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
	metrics.ExecutorsRegistered.Add(1)
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
