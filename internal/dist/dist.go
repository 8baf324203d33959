// Package dist distributes one fault-injection campaign across many
// executor processes. It is the scale-out layer over the existing
// crash-safe goofi engine: a coordinator splits the campaign's plan
// into contiguous experiment-ID shards, leases each shard to an
// executor (a pooled local ctrlexec process or a remote HTTP executor,
// both reached over the same HTTP transport), streams every completed record back into
// a per-shard JSONL segment, and finally merges the segments into the
// canonical experiment-ordered record file — byte-identical to a solo
// run's, which the goofi shard tests pin.
//
// Fault tolerance is lease-based, in the paper's best-effort-recovery
// spirit applied to the harness itself: every record an executor
// streams doubles as a lease heartbeat. An executor that dies
// (SIGKILL) or wedges (no heartbeat within the lease TTL) has its
// lease expired, its process killed, and its shard re-leased to
// another executor, which resumes from the records already salvaged
// into the coordinator-side segment — so a lost executor costs the
// unstreamed tail of its shard, never the shard and never the
// campaign. Lease transitions (leased / renewed / completed / expired)
// write through the internal/journal WAL so a restarted coordinator
// knows which shards already finished.
package dist

import (
	"context"

	"ctrlguard/internal/goofi"
)

// ShardTask is the unit of work leased to an executor: one contiguous
// slice of the campaign plan. The executor re-derives the full
// deterministic plan from the spec and seed, executes only
// [Start, End), and streams each completed record back. Resume carries
// the records the coordinator already holds for this shard (salvaged
// from the segment of an expired lease), so a re-leased shard pays
// only for the lost tail.
type ShardTask struct {
	// Campaign is the job ID the shard belongs to (diagnostics only).
	Campaign string `json:"campaign,omitempty"`

	// Spec is the full campaign spec — identical for every shard.
	Spec goofi.CampaignSpec `json:"spec"`

	// Shard is the shard's index within the campaign's shard plan.
	Shard int `json:"shard"`

	// Start and End bound the shard's experiment-ID range [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`

	// Attempt counts prior leases of this shard (0 = first lease).
	Attempt int `json:"attempt,omitempty"`

	// Resume holds records already persisted for this shard; matching
	// experiments are reused instead of re-executed and are NOT
	// re-streamed.
	Resume []goofi.Record `json:"resume,omitempty"`

	// ChaosKillAfter and ChaosHangAfter are TEST-ONLY fault injection
	// for the executor itself, honored by cmd/ctrlexec on attempt 0:
	// after streaming N records the executor SIGKILLs itself
	// (ChaosKillAfter) or stops heartbeating and hangs
	// (ChaosHangAfter). The chaos suite uses them to prove a dead or
	// wedged executor's shard is re-leased and the final records stay
	// byte-identical.
	ChaosKillAfter int `json:"chaosKillAfter,omitempty"`
	ChaosHangAfter int `json:"chaosHangAfter,omitempty"`
}

// Event is one line of the executor→coordinator stream (JSON lines
// over an HTTP response body). Every event renews
// the shard's lease.
type Event struct {
	// Type is "beat" (keep-alive while no record is ready, e.g. during
	// the golden run), "record" (one completed experiment), "done" (the
	// shard finished; Result set), or "error" (the executor failed;
	// Error set).
	Type string `json:"type"`

	Shard  int           `json:"shard"`
	Done   int           `json:"done,omitempty"` // progress: records completed so far
	Record *goofi.Record `json:"record,omitempty"`
	Error  string        `json:"error,omitempty"`

	// Result is a finished shard's accounting. The records themselves
	// travel as record events (they double as heartbeats and land in
	// the coordinator's segment as they complete).
	Result *goofi.Stats `json:"result,omitempty"`
}

// Event type values.
const (
	EventBeat   = "beat"
	EventRecord = "record"
	EventDone   = "done"
	EventError  = "error"
)

// Executor runs shard tasks somewhere: in-process (Engine), in a
// pooled local ctrlexec process (Proc), or on a remote host (HTTP). Run
// streams events to sink — records double as lease heartbeats — and
// returns when the shard completes or fails. Implementations must
// honor ctx promptly: the coordinator cancels the context of a run
// whose lease expires, and a Proc executor answers that by SIGKILLing
// its process.
type Executor interface {
	// Name identifies the executor in journal entries and logs.
	Name() string

	// Run executes one shard task. A nil error means a done event was
	// delivered and the shard's records all streamed (or rode in via
	// task.Resume).
	Run(ctx context.Context, task ShardTask, sink func(Event)) error
}
