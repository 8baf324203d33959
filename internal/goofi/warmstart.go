package goofi

import (
	"sync/atomic"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// WarmStartStats summarises how much re-execution the campaign's prefix
// engine avoided in one fixed-count campaign.
type WarmStartStats struct {
	// Resumed counts experiments that skipped the fault-free prefix,
	// forked off a worker's golden cursor at their injection
	// instruction (resumed from a checkpoint in a variable-level
	// campaign); FullReplays counts those that ran from the start.
	Resumed     int `json:"resumed"`
	FullReplays int `json:"fullReplays"`

	// EarlyExits counts experiments whose post-injection state
	// re-converged with the golden run, splicing the golden remainder
	// instead of executing it.
	EarlyExits int `json:"earlyExits"`

	// Checkpoints counts the golden cursors started, one per worker
	// that ran an experiment; a variable-level campaign counts its
	// checkpoints.
	Checkpoints int `json:"checkpoints"`

	// SkippedInstructions is the total pre-injection instruction count
	// that forked experiments did not re-execute.
	SkippedInstructions uint64 `json:"skippedInstructions"`
}

// warmState is the prefix engine's per-campaign state shared by the
// worker pool: the spec every cursor and lane runs under, the
// hash-annotated golden outcome the lanes splice from, and the
// counters. Each worker keeps its own golden cursor; a cursor of an
// armed campaign runs under its own fresh monitor stack, whose state
// every lane forked off it inherits. It is safe for concurrent use.
type warmState struct {
	prog   *cpu.Program
	spec   workload.RunSpec
	golden *workload.Outcome
	det    *detectState // nil without detectors

	resumed     atomic.Int64
	fullReplays atomic.Int64
	earlyExits  atomic.Int64
	cursors     atomic.Int64
	skipped     atomic.Uint64
}

// newWarmState returns the campaign's prefix engine, or an error when no
// cursor can run under spec (see workload.NewCursor).
func newWarmState(prog *cpu.Program, spec workload.RunSpec, golden *workload.Outcome, det *detectState) (*warmState, error) {
	w := &warmState{prog: prog, spec: spec, golden: golden, det: det}
	if _, err := w.newCursor(); err != nil {
		return nil, err
	}
	return w, nil
}

// newCursor starts a golden cursor at instruction 0.
func (w *warmState) newCursor() (*workload.Cursor, error) {
	spec := w.spec
	spec.Monitor = w.det.newMonitor(w.prog)
	return workload.NewCursor(w.prog, spec)
}

// run executes spec's experiment, which splices from the golden run.
// With cur, the calling worker's cursor slot, it forks the experiment
// off that cursor (started on first use) when the cursor can reach the
// injection; otherwise, and with a nil cur, it runs from instruction 0.
// A panic drops the worker's cursor, which may have stopped mid-step,
// so the retry starts a fresh one.
func (w *warmState) run(cur **workload.Cursor, spec workload.RunSpec) *workload.Outcome {
	spec.Golden = w.golden
	var out *workload.Outcome
	if cur != nil {
		c := *cur
		*cur = nil
		if c == nil {
			c, _ = w.newCursor() // newWarmState proved the spec takes one
			w.cursors.Add(1)
		}
		out = c.Fork(spec)
		*cur = c
	}
	forked := out != nil
	if !forked {
		out = workload.Run(w.prog, spec)
	}
	switch {
	case out.Aborted:
		return out // a deadline-expired attempt counts toward nothing
	case forked:
		w.resumed.Add(1)
		w.skipped.Add(spec.Injection.At)
	default:
		w.fullReplays.Add(1)
	}
	if out.ReconvergedAt != 0 {
		w.earlyExits.Add(1)
	}
	return out
}

// stats snapshots the counters.
func (w *warmState) stats() *WarmStartStats {
	return &WarmStartStats{
		Resumed:             int(w.resumed.Load()),
		FullReplays:         int(w.fullReplays.Load()),
		EarlyExits:          int(w.earlyExits.Load()),
		Checkpoints:         int(w.cursors.Load()),
		SkippedInstructions: w.skipped.Load(),
	}
}
