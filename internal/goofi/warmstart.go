package goofi

import (
	"sort"
	"sync"
	"sync/atomic"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// checkpointCap bounds a campaign's checkpoint cache. Each checkpoint
// holds a full machine snapshot (~16 KiB of memory image plus registers
// and cache), so a few dozen cover the hot injection iterations of a
// campaign without noticeable memory cost.
const checkpointCap = 32

// WarmStartStats summarises how much re-execution the campaign fast
// path avoided in one fixed-count campaign.
type WarmStartStats struct {
	// Resumed counts experiments that started from a checkpoint
	// instead of iteration 0; FullReplays counts the rest.
	Resumed     int `json:"resumed"`
	FullReplays int `json:"fullReplays"`

	// EarlyExits counts experiments whose post-injection state
	// re-converged with the golden run, splicing the golden remainder
	// instead of executing it.
	EarlyExits int `json:"earlyExits"`

	// Checkpoints is the number of snapshots captured; CacheHits the
	// number of times a worker reused one already captured (or in
	// flight); Evictions the number dropped by the LRU bound.
	Checkpoints int `json:"checkpoints"`
	CacheHits   int `json:"cacheHits"`
	Evictions   int `json:"evictions"`

	// SkippedInstructions is the total pre-injection instruction count
	// that resumed experiments did not re-execute.
	SkippedInstructions uint64 `json:"skippedInstructions"`
}

// ckptEntry is one singleflight slot of the checkpoint cache. The
// first worker to request an iteration creates the entry and captures
// the snapshot; later workers wait on ready. ck stays nil when the
// capture failed, which waiters treat as "run a full replay".
type ckptEntry struct {
	ready   chan struct{}
	ck      *workload.Checkpoint
	lastUse uint64
}

func (e *ckptEntry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// warmState is the per-golden-run fast-path state shared by a
// campaign's worker pool: the hash-annotated golden outcome and the
// LRU-bounded checkpoint cache. Checkpoints of an armed campaign are
// captured under a fresh monitor stack, so they carry its state. It is
// safe for concurrent use.
type warmState struct {
	prog   *cpu.Program
	spec   workload.RunSpec
	golden *workload.Outcome
	det    *detectState // nil without detectors

	mu      sync.Mutex
	clock   uint64
	cap     int
	entries map[int]*ckptEntry

	resumed     atomic.Int64
	fullReplays atomic.Int64
	earlyExits  atomic.Int64
	checkpoints atomic.Int64
	cacheHits   atomic.Int64
	evictions   atomic.Int64
	skipped     atomic.Uint64
}

func newWarmState(prog *cpu.Program, spec workload.RunSpec, golden *workload.Outcome, det *detectState, cap int) *warmState {
	return &warmState{
		prog:    prog,
		spec:    spec,
		golden:  golden,
		det:     det,
		cap:     cap,
		entries: make(map[int]*ckptEntry),
	}
}

// injectionIteration returns the control iteration an injection at
// instruction index at falls into: the largest k with starts[k] <= at.
func injectionIteration(starts []uint64, at uint64) int {
	return sort.Search(len(starts), func(i int) bool { return starts[i] > at }) - 1
}

// checkpointFor returns a checkpoint usable for an injection at
// instruction index at, or nil when the experiment must run from the
// start (injection during iteration 0, or capture failure).
func (w *warmState) checkpointFor(at uint64) *workload.Checkpoint {
	k := injectionIteration(w.golden.IterationStarts, at)
	if k <= 0 {
		return nil
	}
	return w.get(k)
}

// get returns the checkpoint at iteration k, capturing it at most once
// across the worker pool (singleflight).
func (w *warmState) get(k int) *workload.Checkpoint {
	w.mu.Lock()
	w.clock++
	if e, ok := w.entries[k]; ok {
		e.lastUse = w.clock
		w.mu.Unlock()
		<-e.ready
		w.cacheHits.Add(1)
		return e.ck
	}
	e := &ckptEntry{ready: make(chan struct{}), lastUse: w.clock}
	w.entries[k] = e
	w.evictLocked(k)
	// Capture incrementally from the nearest earlier cached
	// checkpoint: with experiments fed in injection order the capture
	// cursor only ever walks forward, so the total capture cost of a
	// campaign is about one golden run.
	var from *workload.Checkpoint
	fromK := -1
	for i, other := range w.entries {
		if i < k && i > fromK && other.done() && other.ck != nil {
			fromK = i
			from = other.ck
		}
	}
	w.mu.Unlock()

	spec := w.spec
	spec.From = from
	if w.det != nil {
		spec.Monitor = w.det.newMonitor(w.prog)
	}
	// Capture failures (an environment that cannot be cloned) leave
	// e.ck nil: every experiment at this iteration falls back to full
	// replay, preserving correctness.
	if ck, err := workload.CaptureCheckpoint(w.prog, spec, k); err == nil {
		e.ck = ck
		w.checkpoints.Add(1)
	}
	close(e.ready)
	return e.ck
}

// evictLocked enforces the LRU bound, never touching the entry just
// inserted (keep) or captures still in flight.
func (w *warmState) evictLocked(keep int) {
	for len(w.entries) > w.cap {
		victim := -1
		var oldest uint64
		for i, e := range w.entries {
			if i == keep || !e.done() {
				continue
			}
			if victim == -1 || e.lastUse < oldest {
				victim = i
				oldest = e.lastUse
			}
		}
		if victim == -1 {
			return
		}
		delete(w.entries, victim)
		w.evictions.Add(1)
	}
}

// noteRun records an experiment's fast-path statistics.
func (w *warmState) noteRun(resumedFrom *workload.Checkpoint, out *workload.Outcome) {
	if resumedFrom != nil {
		w.resumed.Add(1)
		w.skipped.Add(resumedFrom.Instructions())
	} else {
		w.fullReplays.Add(1)
	}
	if out.ReconvergedAt != 0 {
		w.earlyExits.Add(1)
	}
}

// noteLane records a lockstep lane's fast-path statistics. A lane
// forks off its batch leader's shared golden-prefix replay at the
// injection instruction, so per-experiment it is a resume that skipped
// the entire prefix; the leader's single replay of that prefix is
// shared work the lane never pays.
func (w *warmState) noteLane(at uint64, out *workload.Outcome) {
	w.resumed.Add(1)
	w.skipped.Add(at)
	if out.ReconvergedAt != 0 {
		w.earlyExits.Add(1)
	}
}

// stats snapshots the counters.
func (w *warmState) stats() *WarmStartStats {
	return &WarmStartStats{
		Resumed:             int(w.resumed.Load()),
		FullReplays:         int(w.fullReplays.Load()),
		EarlyExits:          int(w.earlyExits.Load()),
		Checkpoints:         int(w.checkpoints.Load()),
		CacheHits:           int(w.cacheHits.Load()),
		Evictions:           int(w.evictions.Load()),
		SkippedInstructions: w.skipped.Load(),
	}
}
