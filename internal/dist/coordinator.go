package dist

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/journal"
	"ctrlguard/internal/jsonl"
)

// Default knobs for Options. Shard size trades scheduling granularity
// (small shards spread load and bound re-run cost after a kill) against
// per-shard overhead (each lease redraws the plan, and a lease on a
// fresh executor process also replays the golden run). The lease TTL must comfortably exceed the executors' beat
// interval (500ms) plus one long experiment.
const (
	DefaultShardSize   = 500
	DefaultLeaseTTL    = 15 * time.Second
	DefaultMaxAttempts = 3
)

// Options configures a distributed campaign run.
type Options struct {
	// ShardSize is the number of experiments per shard
	// (default DefaultShardSize).
	ShardSize int

	// LeaseTTL is how long a leased shard may go without streaming any
	// event before the coordinator declares the executor dead, kills
	// the lease, and re-queues the shard (default DefaultLeaseTTL).
	LeaseTTL time.Duration

	// MaxAttempts is how many leases a shard gets before the campaign
	// fails (default DefaultMaxAttempts).
	MaxAttempts int

	// SegmentDir, if set, holds the per-shard record segments. Every
	// record an executor streams is appended (durably) to its shard's
	// segment before the campaign result exists, so a coordinator crash
	// or an executor death costs only un-streamed work. Created if
	// missing; the segments outlive the run, for the caller to remove.
	// Empty keeps records in memory only: a re-leased shard still
	// resumes from them, but nothing survives the process.
	SegmentDir string

	// Campaign names the job in journal entries.
	Campaign string

	// Journal, if non-nil, receives shard lease-lifecycle entries
	// (leased / renewed / completed / expired) as they happen. Renewal
	// entries are throttled to one per half-TTL per shard.
	Journal func(journal.Entry)

	// CompletedShards marks shards finished by a previous coordinator
	// incarnation (replayed from the journal). They are not re-leased;
	// their records come straight from their salvaged segments.
	CompletedShards map[int]bool

	// OnRecord, if non-nil, observes every record as the coordinator
	// ingests it, in arrival order (not experiment order), together with
	// the campaign-wide count of distinct records held so far.
	OnRecord func(rec goofi.Record, done int)

	// Logger for coordinator decisions (default: discard into the
	// standard logger).
	Logger *log.Logger

	// TaskHook, if non-nil, observes (and may mutate) every task just
	// before it is leased. TEST-ONLY: the chaos suite uses it to plant
	// chaos knobs on first attempts.
	TaskHook func(*ShardTask)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.ShardSize <= 0 {
		out.ShardSize = DefaultShardSize
	}
	if out.LeaseTTL <= 0 {
		out.LeaseTTL = DefaultLeaseTTL
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = DefaultMaxAttempts
	}
	if out.Logger == nil {
		out.Logger = log.Default()
	}
	return out
}

// shardState is the coordinator's view of one shard.
type shardState struct {
	idx   int
	shard goofi.Shard

	mu       sync.Mutex
	records  map[int]goofi.Record  // ingested, newest wins
	appender *goofi.RecordAppender // nil without a SegmentDir
	attempt  int
	result   *goofi.Stats // the completed lease's accounting
	lastJot  time.Time    // last journaled renewal
}

// resume returns the shard's salvaged records in ID order — the Resume
// set handed to the next lease so completed work is never re-executed.
func (st *shardState) resume() []goofi.Record {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]goofi.Record, 0, len(st.records))
	for _, r := range st.records {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

type coordinator struct {
	opts Options
	spec goofi.CampaignSpec

	states []*shardState
	queue  chan int

	mu      sync.Mutex
	pending int
	done    int // ingested unique records, campaign-wide
	failure error
	cancel  context.CancelFunc
}

// Run executes a campaign sharded across the given executors and
// returns the merged result. Its Records are byte-identical to a solo
// run of the same spec: shards are contiguous experiment-ID ranges of
// the same deterministic plan, and the merge re-assembles them in
// experiment order. When Run fails or is cancelled they are the
// records ingested so far, still in experiment order. Its Stats fold
// the shards that completed during this coordinator incarnation
// (goofi.Fold); shards finished by a previous one contribute records
// but no stats.
//
// Fault tolerance is lease-based. Every event an executor streams
// (records, completion, and idle heartbeats) renews its shard's lease;
// a lease that goes LeaseTTL without an event is expired — the
// executor is killed (for subprocess transports, SIGKILL) and the
// shard re-queued, resuming from the records its segment already
// holds. A shard that fails MaxAttempts times fails the campaign.
func Run(ctx context.Context, spec goofi.CampaignSpec, executors []Executor, opts Options) (*goofi.Result, error) {
	if len(executors) == 0 {
		return nil, fmt.Errorf("dist: no executors")
	}
	if spec.Sequential() {
		return nil, fmt.Errorf("dist: precision-driven campaigns cannot shard (their experiment count is not fixed in advance)")
	}
	cfg, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	if o.SegmentDir != "" {
		if err := os.MkdirAll(o.SegmentDir, 0o755); err != nil {
			return nil, fmt.Errorf("dist: segment dir: %w", err)
		}
	}

	total := cfg.Experiments
	shards := goofi.SplitShards(total, o.ShardSize)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	c := &coordinator{
		opts:   o,
		spec:   spec,
		states: make([]*shardState, len(shards)),
		// Buffered for every enqueue that can ever happen, so re-queues
		// after a failed lease never block a slot goroutine.
		queue:  make(chan int, len(shards)*o.MaxAttempts),
		cancel: cancel,
	}

	// Open every shard's segment up front, salvaging whatever a previous
	// coordinator incarnation (or an earlier lease this run) persisted.
	defer func() {
		for _, st := range c.states {
			if st != nil && st.appender != nil {
				st.appender.Close()
			}
		}
	}()
	for i, sh := range shards {
		st := &shardState{idx: i, shard: sh, records: make(map[int]goofi.Record)}
		c.states[i] = st
		if o.SegmentDir == "" {
			continue
		}
		ap, salvaged, err := goofi.OpenRecordAppender(SegmentPath(o.SegmentDir, i))
		if err != nil {
			return nil, fmt.Errorf("dist: shard %d segment: %w", i, err)
		}
		st.appender = ap
		for _, r := range salvaged {
			if sh.Contains(r.ID) {
				st.records[r.ID] = r
			}
		}
		c.done += len(st.records)
	}

	// Queue the shards that still need work.
	for i := range shards {
		if o.CompletedShards[i] {
			st := c.states[i]
			if n, want := len(st.records), st.shard.Size(); n != want {
				// The journal says done but the segment disagrees —
				// fail safe and re-run it rather than merge a hole.
				o.Logger.Printf("dist: shard %d journaled complete but segment has %d/%d records; re-leasing", i, n, want)
			} else {
				continue
			}
		}
		c.pending++
		c.queue <- i
	}

	if c.pending > 0 {
		var wg sync.WaitGroup
		for _, ex := range executors {
			wg.Add(1)
			go func(ex Executor) {
				defer wg.Done()
				c.slot(runCtx, ex)
			}(ex)
		}
		wg.Wait()
	}

	// Gather the shard records, which concatenate in experiment order
	// because shards are contiguous, and fold the per-lease stats.
	c.mu.Lock()
	failure := c.failure
	c.mu.Unlock()
	if failure == nil {
		failure = ctx.Err()
	}
	res := &goofi.Result{Config: cfg}
	sets := make([][]goofi.Record, len(c.states))
	var parts []goofi.Stats
	for i, st := range c.states {
		sets[i] = st.resume()
		if failure != nil {
			// Hand back what was ingested: a cancelled campaign keeps
			// its partial records like a cancelled solo run does.
			res.Records = append(res.Records, sets[i]...)
		}
		if st.result != nil {
			parts = append(parts, *st.result)
		}
	}
	if failure == nil {
		if res.Records, err = MergeRecords(total, sets...); err != nil {
			return nil, err
		}
	}
	res.Stats = goofi.Fold(parts, res.Records)
	return res, failure
}

// SegmentPath names shard's record segment inside dir.
func SegmentPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.jsonl", shard))
}

// LoadSegments reads every record persisted in dir's shard segments —
// the live or crash-salvaged state of a campaign Run has not finished
// — in experiment-ID order, the newest record winning per ID. A torn
// final line in a segment is dropped, as on resume; a missing
// directory holds no records.
func LoadSegments(dir string) ([]goofi.Record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		return nil, err
	}
	byID := make(map[int]goofi.Record)
	for _, p := range paths {
		recs, err := goofi.LoadRecords(p)
		var trunc *jsonl.TruncatedError
		if err != nil && !errors.As(err, &trunc) {
			return nil, fmt.Errorf("dist: segment %s: %w", filepath.Base(p), err)
		}
		for _, r := range recs {
			byID[r.ID] = r
		}
	}
	out := make([]goofi.Record, 0, len(byID))
	for _, r := range byID {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// jot writes a journal entry for a shard event, if journaling is on.
func (c *coordinator) jot(typ journal.EventType, shard int, executor string, done int, errMsg string) {
	if c.opts.Journal == nil {
		return
	}
	sh := shard
	c.opts.Journal(journal.Entry{
		Job:      c.opts.Campaign,
		Type:     typ,
		Shard:    &sh,
		Executor: executor,
		Done:     done,
		Error:    errMsg,
	})
}

// slot is one executor's scheduling loop: lease shards off the queue
// until the queue closes (campaign done) or the run is cancelled
// (campaign failed).
func (c *coordinator) slot(ctx context.Context, ex Executor) {
	for {
		select {
		case <-ctx.Done():
			return
		case idx, ok := <-c.queue:
			if !ok {
				return
			}
			st := c.states[idx]
			err := c.lease(ctx, ex, st)
			if err == nil {
				c.complete(st, ex)
				continue
			}
			if ctx.Err() != nil {
				return
			}
			c.release(st, ex, err)
		}
	}
}

// complete marks a shard finished; the last one closes the queue.
func (c *coordinator) complete(st *shardState, ex Executor) {
	st.mu.Lock()
	got := len(st.records)
	st.mu.Unlock()
	c.jot(journal.EventShardCompleted, st.idx, ex.Name(), got, "")
	c.opts.Logger.Printf("dist: shard %d [%d,%d) completed by %s (%d records)",
		st.idx, st.shard.Start, st.shard.End, ex.Name(), got)
	c.mu.Lock()
	c.pending--
	if c.pending == 0 {
		close(c.queue)
	}
	c.mu.Unlock()
}

// release returns a failed shard to the queue for another lease, or
// fails the whole campaign once its attempts are spent.
func (c *coordinator) release(st *shardState, ex Executor, cause error) {
	c.jot(journal.EventShardExpired, st.idx, ex.Name(), 0, cause.Error())
	st.mu.Lock()
	st.attempt++
	attempt := st.attempt
	salvaged := len(st.records)
	st.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if attempt >= c.opts.MaxAttempts {
		if c.failure == nil {
			c.failure = fmt.Errorf("dist: shard %d failed %d times, giving up: %w", st.idx, attempt, cause)
			c.cancel()
		}
		return
	}
	c.opts.Logger.Printf("dist: shard %d lease to %s died (%v); re-queueing with %d salvaged records (attempt %d)",
		st.idx, ex.Name(), cause, salvaged, attempt)
	c.queue <- st.idx
}

// lease runs one shard on one executor under a lease: any streamed
// event renews it, and LeaseTTL of silence expires it, cancelling the
// executor's context (which kills a subprocess outright).
func (c *coordinator) lease(ctx context.Context, ex Executor, st *shardState) error {
	st.mu.Lock()
	attempt := st.attempt
	st.mu.Unlock()
	task := ShardTask{
		Campaign: c.opts.Campaign,
		Spec:     c.spec,
		Shard:    st.idx,
		Start:    st.shard.Start,
		End:      st.shard.End,
		Attempt:  attempt,
		Resume:   st.resume(),
	}
	if c.opts.TaskHook != nil {
		c.opts.TaskHook(&task)
	}
	c.jot(journal.EventShardLeased, st.idx, ex.Name(), len(task.Resume), "")
	c.opts.Logger.Printf("dist: shard %d [%d,%d) leased to %s (attempt %d, %d resume records)",
		st.idx, st.shard.Start, st.shard.End, ex.Name(), attempt, len(task.Resume))

	leaseCtx, cancelLease := context.WithCancel(ctx)
	defer cancelLease()
	var lastBeat atomic.Int64
	lastBeat.Store(time.Now().UnixNano())
	var expired atomic.Bool

	// Watchdog: expire the lease when the executor goes quiet. The beat
	// interval is well under the TTL, so a live-but-slow executor never
	// trips this — only a dead or wedged one.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		t := time.NewTicker(c.opts.LeaseTTL / 4)
		defer t.Stop()
		for {
			select {
			case <-watchdogDone:
				return
			case <-leaseCtx.Done():
				return
			case <-t.C:
				if time.Since(time.Unix(0, lastBeat.Load())) > c.opts.LeaseTTL {
					expired.Store(true)
					cancelLease()
					return
				}
			}
		}
	}()

	sink := func(ev Event) {
		lastBeat.Store(time.Now().UnixNano())
		switch ev.Type {
		case EventRecord:
			if ev.Record != nil {
				c.ingest(st, *ev.Record)
			}
		case EventDone:
			st.mu.Lock()
			st.result = ev.Result
			st.mu.Unlock()
		}
		c.renew(st, ex)
	}

	err := ex.Run(leaseCtx, task, sink)
	if err != nil && expired.Load() {
		return fmt.Errorf("lease expired after %s without progress (executor killed): %w", c.opts.LeaseTTL, err)
	}
	return err
}

// renew journals lease renewals, throttled to one per half-TTL per
// shard so the journal scales with shards, not records.
func (c *coordinator) renew(st *shardState, ex Executor) {
	if c.opts.Journal == nil {
		return
	}
	now := time.Now()
	st.mu.Lock()
	due := now.Sub(st.lastJot) >= c.opts.LeaseTTL/2
	var got int
	if due {
		st.lastJot = now
		got = len(st.records)
	}
	st.mu.Unlock()
	if due {
		c.jot(journal.EventShardRenewed, st.idx, ex.Name(), got, "")
	}
}

// ingest durably appends a streamed record to the shard's segment and
// folds it into the in-memory state. The append happens before the
// record is observable anywhere else: if the coordinator dies the
// instant after, the segment already has it.
func (c *coordinator) ingest(st *shardState, rec goofi.Record) {
	st.mu.Lock()
	_, dup := st.records[rec.ID]
	if st.appender != nil {
		if err := st.appender.Append(rec); err != nil {
			// The record survives in memory; the segment just lost
			// durability for it. Log and carry on — the merge uses memory.
			c.opts.Logger.Printf("dist: shard %d segment append: %v", st.idx, err)
		}
	}
	st.records[rec.ID] = rec
	st.mu.Unlock()

	c.mu.Lock()
	if !dup {
		c.done++
	}
	done := c.done
	c.mu.Unlock()
	if c.opts.OnRecord != nil {
		c.opts.OnRecord(rec, done)
	}
}
