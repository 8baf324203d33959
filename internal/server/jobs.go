package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ctrlguard/internal/castore"
	"ctrlguard/internal/dist"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
	"ctrlguard/internal/jsonl"
	"ctrlguard/internal/tenant"
	"ctrlguard/internal/tune"
)

// Kind distinguishes the job types the manager runs: plain
// fault-injection campaigns and design-space tuning searches.
type Kind string

const (
	KindCampaign Kind = "campaign"
	KindTune     Kind = "tune"
)

// The original GOOFI was an interactive service: campaigns were queued
// through its GUI and every experiment landed in a SQL database for
// later analysis. Manager is that service core for ctrlguardd — a
// bounded job queue feeding a pool of campaign runners, each campaign
// executing through the dist shard coordinator (in-process unless
// executors are configured) with live progress fan-out and JSONL
// persistence.
//
// The manager practices the paper's best-effort recovery on itself:
// every job lifecycle transition is written through an fsync'd journal
// before the server acknowledges it, each completed experiment is
// appended to the campaign's record segments as it happens, and a restarted
// manager replays the journal, re-enqueues every interrupted campaign,
// and resumes it from its persisted records — so a crash costs the tail
// of the running campaign, never the queue.

// State is a campaign's lifecycle stage.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"

	// StateInterrupted marks a campaign stopped by a shutdown rather
	// than by its user: a graceful SIGTERM journals running and queued
	// jobs as interrupted, and the next start re-enqueues and resumes
	// them. It is terminal for this process's lifetime only.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final (for this process).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateInterrupted
}

// Event is one progress update on a campaign's event stream.
type Event struct {
	Type     string         `json:"type"` // "snapshot", "progress", or a terminal state
	Campaign string         `json:"campaign"`
	State    State          `json:"state"`
	Done     int            `json:"done"`
	Total    int            `json:"total"`
	Outcomes map[string]int `json:"outcomes,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// Campaign is one queued, running, or finished fault-injection job.
type Campaign struct {
	ID       string
	Kind     Kind
	Spec     goofi.CampaignSpec
	TuneSpec *tune.Spec // set when Kind == KindTune
	Tenant   string     // owning tenant's name (immutable after creation)
	Created  time.Time

	// usageHeld and usageN are the campaign's charge against its
	// tenant's quota accounting; both are guarded by the Manager's
	// lock, not c.mu, because they change together with the usage map.
	usageHeld bool
	usageN    int

	mu         sync.Mutex
	state      State
	started    time.Time
	finished   time.Time
	done       int
	total      int
	outcomes   map[string]int
	errMsg     string
	dataPath   string       // <id>.jsonl: a finished campaign's records
	file       *recordFile  // dataPath's index, built on first use
	segDir     string       // <id>.shards/: live record segments (resume source)
	cacheHit   bool         // served from the content-addressed result cache
	resumed    bool         // re-enqueued by journal recovery after a restart
	userCancel bool         // cancelled via the API, as opposed to a shutdown
	stats      goofi.Stats  // set when the run returns
	shardsDone map[int]bool // journal-replayed completed shards (dist resume)
	cancel     context.CancelFunc
	subs       map[chan Event]struct{}
	doneCh     chan struct{} // closed on reaching a terminal state
}

// View is the JSON representation of a campaign's current state.
type View struct {
	ID          string             `json:"id"`
	Kind        Kind               `json:"kind"`
	State       State              `json:"state"`
	Tenant      string             `json:"tenant,omitempty"`
	CacheHit    bool               `json:"cacheHit,omitempty"`
	Spec        goofi.CampaignSpec `json:"spec"`
	TuneSpec    *tune.Spec         `json:"tuneSpec,omitempty"`
	Created     time.Time          `json:"created"`
	Started     *time.Time         `json:"started,omitempty"`
	Finished    *time.Time         `json:"finished,omitempty"`
	Done        int                `json:"done"`
	Total       int                `json:"total"`
	Outcomes    map[string]int     `json:"outcomes,omitempty"`
	Records     int                `json:"records"`
	RecordsPath string             `json:"recordsPath,omitempty"`
	Resumed     bool               `json:"resumed,omitempty"`
	goofi.Stats
	Error string `json:"error,omitempty"`
}

// Snapshot returns a consistent copy of the campaign's state.
func (c *Campaign) Snapshot() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := View{
		ID:          c.ID,
		Kind:        c.Kind,
		State:       c.state,
		Tenant:      c.Tenant,
		CacheHit:    c.cacheHit,
		Spec:        c.Spec,
		TuneSpec:    c.TuneSpec,
		Created:     c.Created,
		Done:        c.done,
		Total:       c.total,
		Outcomes:    copyCounts(c.outcomes),
		Records:     c.recordCountLocked(),
		RecordsPath: c.dataPath,
		Resumed:     c.resumed,
		Stats:       c.stats,
		Error:       c.errMsg,
	}
	if !c.started.IsZero() {
		t := c.started
		v.Started = &t
	}
	if !c.finished.IsZero() {
		t := c.finished
		v.Finished = &t
	}
	return v
}

// Subscribe registers a progress listener. The returned channel
// receives an initial snapshot, then progress events (dropped rather
// than blocking a slow reader), and is signalled done via Done().
// cancel must be called when the listener goes away.
func (c *Campaign) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 64)
	c.mu.Lock()
	ch <- c.eventLocked("snapshot")
	c.subs[ch] = struct{}{}
	c.mu.Unlock()
	return ch, func() {
		c.mu.Lock()
		delete(c.subs, ch)
		c.mu.Unlock()
	}
}

// Done returns a channel closed when the campaign reaches a terminal
// state.
func (c *Campaign) Done() <-chan struct{} { return c.doneCh }

// eventLocked builds an event from the current state; c.mu must be held.
func (c *Campaign) eventLocked(typ string) Event {
	return Event{
		Type:     typ,
		Campaign: c.ID,
		State:    c.state,
		Done:     c.done,
		Total:    c.total,
		Outcomes: copyCounts(c.outcomes),
		Error:    c.errMsg,
	}
}

// broadcastLocked fans an event out to subscribers without blocking;
// c.mu must be held.
func (c *Campaign) broadcastLocked(ev Event) {
	for ch := range c.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop; it re-syncs from Done()+Snapshot
		}
	}
}

func copyCounts(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity — the service sheds load instead of buffering unboundedly.
var ErrQueueFull = errors.New("server: campaign queue is full")

// ErrNotFound is returned for unknown campaign IDs.
var ErrNotFound = errors.New("server: no such campaign")

// Options configures a Manager, and through it a Server.
type Options struct {
	// Workers is the number of campaigns executed concurrently
	// (default 1: each campaign already parallelises its experiments
	// across cores).
	Workers int
	// QueueDepth bounds the number of campaigns waiting to run
	// (default 16); submissions beyond it are shed with 503. Jobs
	// re-enqueued by journal recovery do not count against it.
	QueueDepth int
	// DataDir receives each campaign's records: appended
	// experiment-by-experiment to segments under <id>.shards/ while the
	// campaign runs (the crash-recovery source), then written atomically
	// in experiment order as <id>.jsonl when it finishes, from which
	// /records, /report and /trace serve them. It is created if missing;
	// empty means a private temporary directory, removed by Close.
	DataDir string
	// JournalDir, if set, holds journal.wal, the fsync'd write-ahead
	// journal of job lifecycle events; it is created if missing. With a
	// journal, a restarted manager re-enqueues and resumes every
	// campaign that was queued, running, or interrupted.
	JournalDir string
	// NoResume replays the journal (finished jobs stay visible) but
	// leaves interrupted jobs in StateInterrupted instead of re-running
	// them.
	NoResume bool
	// Logger receives request, lifecycle, recovery and journal logs
	// (default log.Default).
	Logger *log.Logger
	// ConfigHook, if non-nil, is applied to every campaign's resolved
	// goofi.Config just before execution. TEST-ONLY: the chaos harness
	// uses it to inject worker panics, hangs, and timeouts; production
	// configs leave it nil.
	ConfigHook func(*goofi.Config)

	// Executors, when positive, shards campaigns (a precision-driven
	// one batch by batch) across this many local executor slots (plus
	// any registered remote executors) instead of running each as one
	// in-process shard. The slots share a pool of long-lived ctrlexec
	// processes that NewManager starts and Close stops. Requires
	// ExecBin.
	Executors int
	// ExecBin is the ctrlexec binary the local executor pool spawns.
	ExecBin string
	// ExecArgs are extra arguments for spawned executors (resource
	// limits like -timeout and -mem).
	ExecArgs []string
	// ShardSize is the experiments-per-shard for distributed campaigns
	// (0 = dist.DefaultShardSize; at most goofi.ExperimentLimit).
	ShardSize int
	// LeaseTTL overrides the shard lease TTL (default
	// dist.DefaultLeaseTTL). Tests shrink it to exercise expiry fast.
	LeaseTTL time.Duration
	// DistTaskHook, if non-nil, observes (and may mutate) every shard
	// task before it is leased. TEST-ONLY: the chaos suite plants
	// executor kill/hang knobs through it.
	DistTaskHook func(*dist.ShardTask)
	// ExecLeaseHook, if non-nil, observes every lease to a local
	// executor with the pid of the process running it. TEST-ONLY: the
	// chaos suite SIGKILLs executors through it.
	ExecLeaseHook func(task dist.ShardTask, pid int)
	// ExecTTL overrides how long a remote executor registration stays
	// live without a heartbeat (default 15s). The server hands the
	// value to executors in the registration response so both sides
	// agree on the heartbeat cadence.
	ExecTTL time.Duration

	// Tenants is the multi-tenant admission configuration: API keys,
	// rate limits, quotas, and fair-share weights. Empty runs the server
	// open: every request is the default tenant, unlimited.
	Tenants []tenant.Tenant
	// CacheDir, if set, enables content-addressed campaign memoization:
	// completed deterministic campaigns are filed under the hash of
	// (engine version, canonical spec) and duplicate submissions are
	// served from the cache without re-running.
	CacheDir string
	// CacheMaxBytes bounds the memoization cache (0 = unbounded);
	// least-recently-used results are evicted past it.
	CacheMaxBytes int64
	// JournalMaxBytes triggers automatic journal compaction when the
	// write-ahead journal grows past it (0 = startup-only compaction).
	JournalMaxBytes int64
	// RetainAge, if positive, lets the retention sweep delete record
	// files of terminal campaigns finished longer ago than this.
	RetainAge time.Duration
	// RetainBytes, if positive, bounds the total bytes of terminal
	// campaigns' record files; oldest-finished are deleted first.
	RetainBytes int64
}

// Manager owns the campaign queue and worker pool.
type Manager struct {
	opts       Options // defaults applied, DataDir made
	queue      *tenant.FairQueue[*Campaign]
	baseCtx    context.Context
	stop       context.CancelFunc
	wg         sync.WaitGroup
	ownDataDir bool // opts.DataDir is private and goes with the manager
	jnl        *journal.Journal
	closing    atomic.Bool // graceful shutdown: running jobs -> interrupted
	killed     atomic.Bool // test-only crash: suppress journal/terminal writes
	started    time.Time
	metrics    counters

	// Multi-tenant admission and result reuse (see admission.go,
	// cache.go, retention.go).
	tenants *tenant.Registry
	cache   *castore.Store
	buckets map[string]*tenant.Bucket // m.mu-guarded, one per tenant
	usage   map[string]*tenant.Usage  // m.mu-guarded quota accounting

	// Distributed-coordinator state (see dist.go).
	pool     *dist.Pool // nil without local executors
	registry *execRegistry

	mu     sync.Mutex
	jobs   map[string]*Campaign
	order  []string // submission order, for stable listing
	nextID int
}

// NewManager starts a manager. When a journal is configured, the prior
// process's jobs are replayed before the worker pool starts: finished
// jobs become visible in their terminal states, and queued, running, or
// interrupted jobs are re-enqueued (unless NoResume) to resume from
// their persisted records.
func NewManager(opts Options) (*Manager, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Logger == nil {
		opts.Logger = log.Default()
	}
	if opts.Executors > 0 && opts.ExecBin == "" {
		return nil, errors.New("server: Executors > 0 requires ExecBin (the ctrlexec binary to spawn)")
	}
	if opts.ShardSize < 0 || opts.ShardSize > goofi.ExperimentLimit {
		return nil, fmt.Errorf("server: shard size must be in [0, %d] (0 = default %d), got %d",
			goofi.ExperimentLimit, dist.DefaultShardSize, opts.ShardSize)
	}
	registry, err := tenant.NewRegistry(opts.Tenants)
	if err != nil {
		return nil, err
	}
	if opts.JournalDir != "" {
		if err := os.MkdirAll(opts.JournalDir, 0o755); err != nil {
			return nil, err
		}
	}
	ownDataDir := opts.DataDir == ""
	if ownDataDir {
		opts.DataDir, err = os.MkdirTemp("", "ctrlguardd-data-")
	} else {
		err = os.MkdirAll(opts.DataDir, 0o755)
	}
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		baseCtx:    ctx,
		stop:       cancel,
		ownDataDir: ownDataDir,
		started:    time.Now(),
		tenants:    registry,
		buckets:    make(map[string]*tenant.Bucket),
		usage:      make(map[string]*tenant.Usage),
		jobs:       make(map[string]*Campaign),
		registry:   newExecRegistry(opts.ExecTTL),
	}
	if opts.CacheDir != "" {
		cache, err := castore.Open(opts.CacheDir, opts.CacheMaxBytes)
		if err != nil {
			m.release()
			return nil, err
		}
		m.cache = cache
	}
	m.queue = tenant.NewFairQueue[*Campaign](opts.QueueDepth)
	var pending []*Campaign
	if opts.JournalDir != "" {
		jnl, entries, err := journal.Open(filepath.Join(opts.JournalDir, "journal.wal"))
		if err != nil {
			m.release()
			return nil, err
		}
		m.jnl = jnl
		pending = m.restoreJobs(entries, !opts.NoResume)
	}
	if opts.Executors > 0 {
		// Start every local executor now, concurrently and in the
		// background, so the first leases find them up instead of
		// paying for their start-up.
		m.pool = &dist.Pool{Bin: opts.ExecBin, Args: opts.ExecArgs, OnLease: opts.ExecLeaseHook}
		m.pool.Prestart(opts.Executors)
	}
	for _, c := range pending {
		// Recovered jobs ride along without eating into the queue depth
		// for new submissions, but they re-charge their tenant's quota
		// accounting so a restart never resets it.
		m.queue.PushRecovered(c.Tenant, m.fairWeight(c.Tenant), c)
		m.chargeUsage(c)
		m.appendJournal(journal.Entry{Job: c.ID, Type: journal.EventResumed, State: string(StateQueued), Tenant: c.Tenant})
		m.metrics.CampaignsResumed.Add(1)
		m.opts.Logger.Printf("campaign %s resumed from journal (%s, %d/%d done before restart)",
			c.ID, c.Kind, c.done, c.total)
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	m.wg.Add(1)
	go m.retentionLoop()
	return m, nil
}

// restoreJobs folds replayed journal entries into the job table and
// returns the campaigns to re-enqueue. Also compacts a journal that has
// grown well past its folded size.
func (m *Manager) restoreJobs(entries []journal.Entry, resume bool) []*Campaign {
	statuses := journal.Reduce(entries)
	if len(entries) > 2*len(statuses)+64 {
		if err := m.jnl.Compact(statuses); err != nil {
			m.opts.Logger.Printf("journal compaction failed (continuing): %v", err)
		}
	}
	var pending []*Campaign
	for _, s := range statuses {
		c := &Campaign{
			ID:       s.Job,
			Kind:     Kind(s.Kind),
			Created:  s.Submitted,
			total:    s.Total,
			done:     s.Done,
			outcomes: map[string]int{},
			subs:     make(map[chan Event]struct{}),
			doneCh:   make(chan struct{}),
		}
		for k, v := range s.Outcomes {
			c.outcomes[k] = v
		}
		c.shardsDone = s.ShardsDone
		if len(s.Spec) > 0 {
			if err := json.Unmarshal(s.Spec, &c.Spec); err != nil {
				m.opts.Logger.Printf("journal: job %s has an unreadable spec, dropping: %v", s.Job, err)
				continue
			}
		}
		if len(s.TuneSpec) > 0 {
			c.TuneSpec = new(tune.Spec)
			if err := json.Unmarshal(s.TuneSpec, c.TuneSpec); err != nil {
				m.opts.Logger.Printf("journal: job %s has an unreadable tune spec, dropping: %v", s.Job, err)
				continue
			}
		}
		c.Tenant = s.Tenant
		if c.Tenant == "" {
			c.Tenant = tenant.DefaultName // pre-tenancy journal entry
		}
		if _, err := os.Stat(m.recordPath(c)); err == nil {
			c.dataPath = m.recordPath(c)
		}
		if _, err := os.Stat(m.segmentDir(c)); err == nil {
			c.segDir = m.segmentDir(c)
		}
		var num int
		if _, err := fmt.Sscanf(c.ID, "c%d", &num); err == nil && num > m.nextID {
			m.nextID = num
		}

		live := !s.Terminal || s.State == string(StateInterrupted)
		switch {
		case live && resume:
			c.state = StateQueued
			c.resumed = true
			c.errMsg = ""
			pending = append(pending, c)
		case live:
			c.state = StateInterrupted
			c.errMsg = s.Error
			c.finished = s.Finished
			close(c.doneCh)
		default:
			c.state = State(s.State)
			c.errMsg = s.Error
			c.finished = s.Finished
			close(c.doneCh)
		}
		m.jobs[c.ID] = c
		m.order = append(m.order, c.ID)
	}
	return pending
}

// appendJournal writes a journal entry, if a journal is configured.
// Journal failures degrade durability, not availability: they are
// logged and the campaign proceeds.
func (m *Manager) appendJournal(e journal.Entry) {
	if m.jnl == nil || m.killed.Load() {
		return
	}
	if err := m.jnl.Append(e); err != nil {
		m.opts.Logger.Printf("journal append failed (job %s, %s): %v", e.Job, e.Type, err)
	}
	// Long-running servers fold the journal back down once it outgrows
	// its size budget, preserving in-flight jobs' shard completions.
	ran, err := m.jnl.CompactIfOver(m.opts.JournalMaxBytes)
	if err != nil {
		m.opts.Logger.Printf("journal auto-compaction failed (continuing): %v", err)
	} else if ran {
		m.metrics.JournalCompactions.Add(1)
		m.opts.Logger.Printf("journal compacted (exceeded %d bytes)", m.opts.JournalMaxBytes)
	}
}

// journalTerminal records a campaign's terminal state.
func (m *Manager) journalTerminal(c *Campaign) {
	if m.jnl == nil {
		return
	}
	v := c.Snapshot()
	m.appendJournal(journal.Entry{
		Job: c.ID, Type: journal.EventTerminal,
		State: string(v.State), Done: v.Done, Total: v.Total,
		Outcomes: v.Outcomes, Error: v.Error, Tenant: c.Tenant,
	})
}

// Close gracefully stops the manager: running campaigns are cancelled
// at the next experiment boundary and journaled as interrupted (so a
// journal-backed restart resumes them), queued campaigns likewise, and
// the runners are waited for.
func (m *Manager) Close() {
	m.closing.Store(true)
	m.stop()
	m.queue.Close()
	// Shed queued-but-unstarted jobs as interrupted (resumable): the
	// graceful-drain half of the paper's best-effort recovery applied
	// to the service itself.
	for _, c := range m.queue.Drain() {
		m.finalize(c, context.Canceled)
	}
	m.wg.Wait()
	m.release()
}

// release stops what the manager holds once its runners are gone: the
// local executor pool's processes, the journal and a private data
// directory.
func (m *Manager) release() {
	m.stop()
	if m.pool != nil {
		m.pool.Close()
	}
	if m.jnl != nil {
		m.jnl.Close()
	}
	if m.ownDataDir {
		os.RemoveAll(m.opts.DataDir)
	}
}

// kill is the chaos harness's SIGKILL: stop the runners dead without
// journaling terminal states or rewriting record files, exactly as if
// the process had vanished — its executors, whose stdin then reaches
// EOF, included. Test-only.
func (m *Manager) kill() {
	m.killed.Store(true)
	m.stop()
	m.queue.Close()
	m.wg.Wait()
	m.release()
}

// Submit validates a spec and enqueues a campaign for execution as
// the default tenant (the open, single-tenant mode).
func (m *Manager) Submit(spec goofi.CampaignSpec) (*Campaign, error) {
	return m.SubmitAs(tenant.Default(), spec)
}

// SubmitTune validates a tuning spec and enqueues a design-space
// search job as the default tenant. It shares the campaign queue,
// listing, events, and cancellation machinery; progress counts
// candidate evaluations against tune.Spec.PlannedEvaluations' bound.
func (m *Manager) SubmitTune(spec tune.Spec) (*Campaign, error) {
	return m.SubmitTuneAs(tenant.Default(), spec)
}

// Get returns a campaign by ID.
func (m *Manager) Get(id string) (*Campaign, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return c, nil
}

// List returns all campaigns in submission order.
func (m *Manager) List() []*Campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Campaign, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel stops a queued or running campaign. Cancelling a campaign
// that already reached a terminal state is a no-op reporting false.
func (m *Manager) Cancel(id string) (bool, error) {
	c, err := m.Get(id)
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	switch {
	case c.state.Terminal():
		c.mu.Unlock()
		return false, nil
	case c.cancel != nil: // running: stop at the next experiment boundary
		c.userCancel = true
		c.cancel()
		c.mu.Unlock()
		return true, nil
	default: // still queued: mark dead; the runner discards it
		c.userCancel = true
		c.state = StateCancelled
		c.finished = time.Now()
		m.metrics.CampaignsCancelled.Add(1)
		c.broadcastLocked(c.eventLocked(string(StateCancelled)))
		close(c.doneCh)
		c.mu.Unlock()
		m.releaseUsage(c)
		m.journalTerminal(c)
		return true, nil
	}
}

// runner is one worker of the campaign pool. It dispatches from the
// fair-share queue — the tenant with the smallest virtual pass — so
// under contention tenants complete work in proportion to their
// weights.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		c, ok := m.queue.Pop()
		if !ok { // queue closed: shutdown
			return
		}
		m.execute(c)
	}
}

// journalProgressEvery throttles progress journaling: resume
// correctness comes from the per-record segment appends, so the
// journal only needs a coarse progress trail.
const journalProgressEvery = 2 * time.Second

// execute runs one campaign to completion (or cancellation).
func (m *Manager) execute(c *Campaign) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	c.mu.Lock()
	if c.state.Terminal() { // cancelled while queued
		c.mu.Unlock()
		return
	}
	c.state = StateRunning
	c.started = time.Now()
	// A resumed campaign re-counts progress from its salvaged records;
	// the journal's coarse counts are superseded.
	c.done = 0
	c.outcomes = make(map[string]int)
	c.cancel = cancel
	resumed := c.resumed
	c.broadcastLocked(c.eventLocked("progress"))
	c.mu.Unlock()
	m.appendJournal(journal.Entry{Job: c.ID, Type: journal.EventStarted, State: string(StateRunning)})

	if c.Kind == KindTune {
		m.runTune(ctx, c)
	} else {
		m.runCampaign(ctx, c, resumed)
	}
}

// runTune executes a tuning job: the full design-space search, with
// candidate-evaluation progress fanned out to subscribers and the
// finished search persisted as the job's file, one tune.Outcome on one
// line, which /api/v1/tune/{id}/result serves.
func (m *Manager) runTune(ctx context.Context, c *Campaign) {
	outcome, err := tune.Search(ctx, *c.TuneSpec, func(done, total int) {
		c.mu.Lock()
		c.done, c.total = done, total
		c.broadcastLocked(c.eventLocked("progress"))
		c.mu.Unlock()
	})

	path := ""
	if outcome != nil {
		path = m.recordPath(c)
		if saveErr := jsonl.Save(path, []tune.Outcome{*outcome}); saveErr != nil {
			path = ""
			if err == nil {
				err = saveErr
			}
		}
	}
	c.mu.Lock()
	c.dataPath = path
	c.mu.Unlock()
	m.finalize(c, err)
}

// finalize records the campaign's terminal state, notifies subscribers,
// and journals the transition. A cancellation during graceful shutdown
// lands in StateInterrupted — the journal keeps the job alive for the
// next start — while a user cancellation is final.
func (m *Manager) finalize(c *Campaign, err error) {
	c.mu.Lock()
	if c.state.Terminal() {
		c.mu.Unlock()
		return
	}
	faults := c.stats.Faults
	c.finished = time.Now()
	switch {
	case m.interruptedLocked(c, err):
		c.state = StateInterrupted
		m.metrics.CampaignsInterrupted.Add(1)
	case isCancel(err):
		c.state = StateCancelled
		m.metrics.CampaignsCancelled.Add(1)
	case err != nil:
		c.state = StateFailed
		c.errMsg = err.Error()
		m.metrics.CampaignsFailed.Add(1)
	default:
		c.state = StateDone
		m.metrics.CampaignsDone.Add(1)
	}
	// Counted before the terminal state shows, so a reader that sees it
	// sees the campaign's counts too.
	m.metrics.ExperimentsRetried.Add(int64(faults.Retried))
	m.metrics.ExperimentsPanicked.Add(int64(faults.Panicked))
	m.metrics.ExperimentsAbandoned.Add(int64(faults.Abandoned))
	c.broadcastLocked(c.eventLocked(string(c.state)))
	close(c.doneCh)
	c.mu.Unlock()

	m.releaseUsage(c)
	m.journalTerminal(c)
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// interrupted reports whether err stops c for a shutdown, to be
// resumed on the next start, rather than for good.
func (m *Manager) interrupted(c *Campaign, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return m.interruptedLocked(c, err)
}

// interruptedLocked is interrupted with c.mu held.
func (m *Manager) interruptedLocked(c *Campaign, err error) bool {
	return isCancel(err) && m.closing.Load() && !c.userCancel
}
