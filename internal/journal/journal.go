// Package journal is a durable, append-only log of job lifecycle
// events — the campaign server's write-ahead journal. It applies the
// paper's best-effort-recovery discipline to the harness itself: every
// state transition of every job is persisted (fsync'd) before the
// server acts on it, so a daemon crash costs at most the tail of the
// current campaign, never the queue.
//
// The format is JSON lines, one Entry per line, kept by package jsonl
// under its one torn-tail rule: Open drops a final line that is
// unterminated or unparsable and truncates it away, while a malformed
// line in the middle of the stream (corruption, not truncation) is a
// hard error.
package journal

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ctrlguard/internal/fsatomic"
	"ctrlguard/internal/jsonl"
)

// EventType names one kind of lifecycle event.
type EventType string

const (
	// EventSubmitted records a new job entering the queue, carrying its
	// spec so a restart can reconstruct it.
	EventSubmitted EventType = "submitted"
	// EventStarted records a job beginning execution.
	EventStarted EventType = "started"
	// EventProgress periodically records how far a running job has got.
	EventProgress EventType = "progress"
	// EventTerminal records a job reaching a final state (done, failed,
	// cancelled, or interrupted by a shutdown).
	EventTerminal EventType = "terminal"
	// EventResumed records a restart re-enqueueing an interrupted job.
	EventResumed EventType = "resumed"

	// EventShardLeased records a distributed campaign shard being leased
	// to an executor — a first lease or a re-lease after a failure. The
	// shard index rides in Entry.Shard, the executor name in
	// Entry.Executor.
	EventShardLeased EventType = "shard-leased"
	// EventShardRenewed records a lease renewal: the executor streamed
	// progress recently. Renewals are throttled by the coordinator so
	// the journal grows with shard count, not record count.
	EventShardRenewed EventType = "shard-renewed"
	// EventShardCompleted records a shard finishing; its segment file
	// holds every in-shard record. On restart, completed shards are not
	// re-leased — their segments are merged as-is.
	EventShardCompleted EventType = "shard-completed"
	// EventShardExpired records a lease expiring or an executor dying;
	// the shard returns to the queue for re-lease, resuming from
	// whatever its segment salvaged.
	EventShardExpired EventType = "shard-expired"
)

// Entry is one journal line. The job specs are opaque JSON so the
// journal stays independent of the job types it logs.
type Entry struct {
	Seq      int64           `json:"seq"`
	Time     time.Time       `json:"t"`
	Job      string          `json:"job"`
	Type     EventType       `json:"ev"`
	Kind     string          `json:"kind,omitempty"`
	State    string          `json:"state,omitempty"`
	Done     int             `json:"done,omitempty"`
	Total    int             `json:"total,omitempty"`
	Outcomes map[string]int  `json:"outcomes,omitempty"`
	Error    string          `json:"error,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	TuneSpec json.RawMessage `json:"tuneSpec,omitempty"`
	// Tenant names the tenant a job belongs to, so per-tenant quota
	// accounting can be reconstructed from the journal after a restart.
	// Empty on pre-tenancy journals (treated as the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Shard and Executor describe distributed-campaign lease events
	// (the shard-* event types). Shard is a pointer so shard 0 is
	// distinguishable from "not a shard event".
	Shard    *int   `json:"shard,omitempty"`
	Executor string `json:"executor,omitempty"`
}

// ReadEntries parses journal entries from r (see jsonl.Read): a
// malformed final line returns the intact entries together with a
// *jsonl.TruncatedError; a malformed line anywhere else is a hard
// error.
func ReadEntries(r io.Reader) ([]Entry, error) { return jsonl.Read[Entry](r) }

// Journal is an open write-ahead log. Appends are serialised and
// fsync'd before returning, so an acknowledged event survives a crash.
type Journal struct {
	mu   sync.Mutex
	log  *jsonl.Appender[Entry] // nil once closed
	path string
	seq  int64
}

// Open opens (creating if needed) the journal at path, replays its
// entries, repairs a crash-torn final line by truncating it
// (jsonl.Open), and returns the journal positioned for appending
// together with the replayed entries. Corruption other than a torn
// tail is a hard error.
func Open(path string) (*Journal, []Entry, error) {
	log, entries, err := jsonl.Open[Entry](path, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{log: log, path: path}
	for _, e := range entries {
		j.seq = max(j.seq, e.Seq)
	}
	return j, entries, nil
}

// Append assigns the entry the next sequence number, stamps it, writes
// it, and fsyncs before returning.
func (j *Journal) Append(e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return fmt.Errorf("journal: append to closed journal")
	}
	e.Seq = j.seq + 1
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	if err := j.log.Append(e); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.seq = e.Seq
	return nil
}

// Size is the journal file's current length in bytes — the input to
// size-triggered compaction.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return 0
	}
	return j.log.Size()
}

// Close fsyncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}

// JobStatus is the folded state of one job after replaying the journal.
type JobStatus struct {
	Job       string
	Kind      string
	State     string
	Done      int
	Total     int
	Outcomes  map[string]int
	Error     string
	Submitted time.Time
	Finished  time.Time
	Spec      json.RawMessage
	TuneSpec  json.RawMessage
	Tenant    string
	// Terminal mirrors whether the last event for the job was an
	// EventTerminal — the job finished (in some state) rather than being
	// cut off mid-flight by a crash.
	Terminal bool
	// ShardsDone holds the shard indices this job has completed, for
	// distributed campaigns. A restarted coordinator skips these shards
	// and merges their segment files directly.
	ShardsDone map[int]bool
}

// Reduce folds a replayed entry stream into per-job statuses, ordered
// by first submission. Later events overwrite earlier state; a resumed
// event re-opens a previously terminal job.
func Reduce(entries []Entry) []JobStatus {
	byJob := make(map[string]*JobStatus)
	var order []string
	for _, e := range entries {
		s, ok := byJob[e.Job]
		if !ok {
			s = &JobStatus{Job: e.Job}
			byJob[e.Job] = s
			order = append(order, e.Job)
		}
		if e.Kind != "" {
			s.Kind = e.Kind
		}
		if e.State != "" {
			s.State = e.State
		}
		if e.Done != 0 {
			s.Done = e.Done
		}
		if e.Total != 0 {
			s.Total = e.Total
		}
		if len(e.Outcomes) > 0 {
			s.Outcomes = e.Outcomes
		}
		if e.Error != "" {
			s.Error = e.Error
		}
		if len(e.Spec) > 0 {
			s.Spec = e.Spec
		}
		if len(e.TuneSpec) > 0 {
			s.TuneSpec = e.TuneSpec
		}
		if e.Tenant != "" {
			s.Tenant = e.Tenant
		}
		switch e.Type {
		case EventSubmitted:
			s.Submitted = e.Time
		case EventTerminal:
			s.Terminal = true
			s.Finished = e.Time
		case EventResumed:
			s.Terminal = false
			s.Error = ""
		case EventShardCompleted:
			if e.Shard != nil {
				if s.ShardsDone == nil {
					s.ShardsDone = make(map[int]bool)
				}
				s.ShardsDone[*e.Shard] = true
			}
		}
	}
	out := make([]JobStatus, 0, len(order))
	for _, id := range order {
		out = append(out, *byJob[id])
	}
	return out
}

// Compact atomically rewrites the journal to a minimal equivalent
// stream: one submitted entry per job plus, where state advanced, one
// entry carrying the latest known state. A long-running daemon calls
// this at startup so the journal stays proportional to the number of
// jobs rather than the number of events.
func (j *Journal) Compact(statuses []JobStatus) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactLocked(statuses)
}

// CompactIfOver compacts the journal when it has grown past maxBytes,
// folding its own entries down to the minimal equivalent stream — the
// long-running server's defence against unbounded journal growth.
// It reports whether a compaction ran. maxBytes <= 0 disables the
// trigger.
func (j *Journal) CompactIfOver(maxBytes int64) (bool, error) {
	if maxBytes <= 0 {
		return false, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil || j.log.Size() <= maxBytes {
		return false, nil
	}
	entries, err := jsonl.Load[Entry](j.path)
	if err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	if err := j.compactLocked(Reduce(entries)); err != nil {
		return false, err
	}
	return true, nil
}

func (j *Journal) compactLocked(statuses []JobStatus) error {
	if j.log == nil {
		return fmt.Errorf("journal: compact closed journal")
	}
	var entries []Entry
	for _, s := range statuses {
		entries = append(entries, Entry{
			Time: s.Submitted, Job: s.Job,
			Type: EventSubmitted, Kind: s.Kind, State: s.State,
			Total: s.Total, Spec: s.Spec, TuneSpec: s.TuneSpec,
			Tenant: s.Tenant,
		})
		if !s.Terminal {
			// An in-flight distributed campaign's completed shards
			// must survive compaction, or a restart would re-run
			// them. One entry per shard, in index order.
			shards := make([]int, 0, len(s.ShardsDone))
			for sh := range s.ShardsDone {
				shards = append(shards, sh)
			}
			sort.Ints(shards)
			for _, sh := range shards {
				entries = append(entries, Entry{
					Time: s.Submitted, Job: s.Job,
					Type: EventShardCompleted, Shard: &sh,
				})
			}
			continue
		}
		entries = append(entries, Entry{
			Time: s.Finished, Job: s.Job,
			Type: EventTerminal, State: s.State,
			Done: s.Done, Total: s.Total,
			Outcomes: s.Outcomes, Error: s.Error,
		})
	}
	for i := range entries {
		entries[i].Seq = int64(i + 1)
	}
	if err := jsonl.Save(j.path, entries); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	// The journal is the server's source of truth across restarts: the
	// rename that installed the compacted file must itself be durable
	// before the old entries are considered gone, so unlike Save's
	// advisory sync this directory fsync is a hard requirement.
	if err := fsatomic.SyncDir(filepath.Dir(j.path)); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	// Reopen the rewritten file for appending; the old descriptor now
	// points at the unlinked pre-compaction inode.
	log, _, err := jsonl.Open[Entry](j.path, 1)
	if err != nil {
		return fmt.Errorf("journal: reopen after compact: %w", err)
	}
	j.log.Close()
	j.log = log
	j.seq = int64(len(entries))
	return nil
}
