// Package journal is a durable, append-only log of job lifecycle
// events — the campaign server's write-ahead journal. It applies the
// paper's best-effort-recovery discipline to the harness itself: every
// state transition of every job is persisted (fsync'd) before the
// server acts on it, so a daemon crash costs at most the tail of the
// current campaign, never the queue.
//
// The format is JSON lines, one Entry per line. Like the campaign
// record store, the reader is truncation-tolerant: a final line cut
// short by a crash mid-append is dropped (and the file repaired by
// truncating the torn tail on Open; a final line missing its newline
// is torn even when it parses), while a malformed line in the
// middle of the stream — corruption, not truncation — is a hard error.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ctrlguard/internal/fsatomic"
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

// TruncatedError reports a journal whose final line was cut short by a
// crash mid-append. The entries before it are intact.
type TruncatedError struct {
	Line int
	Err  error
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("journal: truncated entry on final line %d: %v", e.Line, e.Err)
}

func (e *TruncatedError) Unwrap() error { return e.Err }

// ReadEntries parses journal entries from r. A malformed final line
// returns the intact entries together with a *TruncatedError; a
// malformed line anywhere else is a hard error.
func ReadEntries(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	var trunc *TruncatedError
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		if trunc != nil {
			return nil, fmt.Errorf("journal: corrupt entry on line %d: %w", trunc.Line, trunc.Err)
		}
		var e Entry
		if err := json.Unmarshal(b, &e); err != nil {
			trunc = &TruncatedError{Line: line, Err: err}
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	if trunc != nil {
		return out, trunc
	}
	return out, nil
}

// Journal is an open write-ahead log. Appends are serialised and
// fsync'd before returning, so an acknowledged event survives a crash.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	bw   *bufio.Writer
	path string
	seq  int64
	size int64
}

// Open opens (creating if needed) the journal at path, replays its
// entries, repairs a crash-torn final line by truncating it, and
// returns the journal positioned for appending together with the
// replayed entries. Corruption other than a torn tail is a hard error.
func Open(path string) (*Journal, []Entry, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	entries, good, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Truncate the torn tail (a no-op when the file ends cleanly) so
	// subsequent appends produce a well-formed stream again.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: repair %s: %w", path, err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	j := &Journal{f: f, bw: bufio.NewWriter(f), path: path, size: good}
	for _, e := range entries {
		if e.Seq > j.seq {
			j.seq = e.Seq
		}
	}
	return j, entries, nil
}

// scan reads entries from f and returns them together with the byte
// offset just past the last fully-parseable line. Append acknowledges
// an entry only once its newline is durable, so an unterminated final
// line is torn even when it parses: it is dropped, and the offset
// stops before it.
func scan(f *os.File) ([]Entry, int64, error) {
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: read: %w", err)
	}
	b = b[:bytes.LastIndexByte(b, '\n')+1]
	entries, err := ReadEntries(bytes.NewReader(b))
	if err != nil {
		var trunc *TruncatedError
		if !errors.As(err, &trunc) {
			return nil, 0, err
		}
		// Offset of the torn tail: everything up to and including the
		// last newline that terminates a good line.
		good := int64(0)
		rest := b
		for i := 0; i < len(entries); {
			nl := bytes.IndexByte(rest, '\n')
			if nl < 0 {
				break
			}
			if len(bytes.TrimSpace(rest[:nl])) > 0 {
				i++
			}
			good += int64(nl + 1)
			rest = rest[nl+1:]
		}
		return entries, good, nil
	}
	return entries, int64(len(b)), nil
}

// Append assigns the entry the next sequence number, stamps it, writes
// it, and fsyncs before returning.
func (j *Journal) Append(e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: append to closed journal")
	}
	j.seq++
	e.Seq = j.seq
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	b, err := json.Marshal(&e)
	if err != nil {
		j.seq--
		return fmt.Errorf("journal: encode: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.bw.Write(b); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.size += int64(len(b))
	return nil
}

// Size is the journal file's current length in bytes — the input to
// size-triggered compaction.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	var first error
	if err := j.bw.Flush(); err != nil {
		first = err
	}
	if err := j.f.Sync(); err != nil && first == nil {
		first = err
	}
	if err := j.f.Close(); err != nil && first == nil {
		first = err
	}
	j.f = nil
	return first
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
	if j.f == nil || j.size <= maxBytes {
		return false, nil
	}
	if err := j.bw.Flush(); err != nil {
		return false, fmt.Errorf("journal: flush: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return false, fmt.Errorf("journal: seek: %w", err)
	}
	entries, _, err := scan(j.f)
	if err != nil {
		return false, err
	}
	if err := j.compactLocked(Reduce(entries)); err != nil {
		return false, err
	}
	return true, nil
}

func (j *Journal) compactLocked(statuses []JobStatus) error {
	if j.f == nil {
		return fmt.Errorf("journal: compact closed journal")
	}
	var seq int64
	err := fsatomic.WriteFile(j.path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range statuses {
			seq++
			sub := Entry{
				Seq: seq, Time: s.Submitted, Job: s.Job,
				Type: EventSubmitted, Kind: s.Kind, State: s.State,
				Total: s.Total, Spec: s.Spec, TuneSpec: s.TuneSpec,
				Tenant: s.Tenant,
			}
			if err := enc.Encode(&sub); err != nil {
				return fmt.Errorf("journal: compact encode: %w", err)
			}
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
					seq++
					shard := sh
					done := Entry{
						Seq: seq, Time: s.Submitted, Job: s.Job,
						Type: EventShardCompleted, Shard: &shard,
					}
					if err := enc.Encode(&done); err != nil {
						return fmt.Errorf("journal: compact encode: %w", err)
					}
				}
				continue
			}
			seq++
			term := Entry{
				Seq: seq, Time: s.Finished, Job: s.Job,
				Type: EventTerminal, State: s.State,
				Done: s.Done, Total: s.Total,
				Outcomes: s.Outcomes, Error: s.Error,
			}
			if err := enc.Encode(&term); err != nil {
				return fmt.Errorf("journal: compact encode: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The journal is the server's source of truth across restarts: the
	// rename that installed the compacted file must itself be durable
	// before the old entries are considered gone, so unlike WriteFile's
	// advisory sync this directory fsync is a hard requirement.
	if err := fsatomic.SyncDir(filepath.Dir(j.path)); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	// Reopen the rewritten file for appending; the old descriptor now
	// points at the unlinked pre-compaction inode.
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopen after compact: %w", err)
	}
	j.f.Close()
	j.f = f
	j.bw = bufio.NewWriter(f)
	j.seq = seq
	j.size = 0
	if fi, err := f.Stat(); err == nil {
		j.size = fi.Size()
	}
	return nil
}
