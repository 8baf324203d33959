package workload

import (
	"fmt"

	"ctrlguard/internal/cpu"
)

// Checkpoint is a frozen harness run at a control-iteration boundary:
// the complete machine state (cpu.Snapshot), the environment simulator,
// the I/O window's output latches, the outcome accumulated so far and,
// when captured under a StatefulMonitor, that monitor's state.
// A checkpoint is immutable once captured — resuming deep-copies every
// part — so one checkpoint can seed many concurrent runs, which is how
// the campaign engine amortises the pre-injection prefix across all
// experiments that inject at the same iteration (the software analogue
// of FERRARI-style pre-injection snapshotting).
type Checkpoint struct {
	iteration int
	vm        *cpu.Snapshot
	env       CloneableEnv
	outHi     []uint32
	outLo     []uint32
	outputs   [][]float64 // per-port outputs of iterations [0, iteration)
	starts    []uint64    // iteration start instruction counts
	monitor   string      // the capturing monitor's state, when monitored
	monitored bool
}

// CloneableEnv is implemented by environment simulators that can be
// deep-copied mid-run, the capability checkpointing needs. The engine
// and two-shaft environments implement it; a custom RunSpec.NewEnv
// environment that does not is simply never checkpointed (runs fall
// back to full replay).
type CloneableEnv interface {
	Environment

	// CloneEnv returns an independent copy frozen at the current
	// state.
	CloneEnv() Environment
}

// Iteration returns the control iteration the checkpoint was taken at:
// iterations [0, Iteration()) have completed.
func (c *Checkpoint) Iteration() int {
	return c.iteration
}

// Instructions returns the dynamic instruction count at the checkpoint
// — injections at or after this point can be resumed from it.
func (c *Checkpoint) Instructions() uint64 {
	return c.vm.InstrCount
}

// CaptureCheckpoint runs prog under spec up to the boundary of control
// iteration k (iterations [0, k) execute) and returns the frozen state.
// spec.From may name an earlier checkpoint to capture incrementally
// from. It fails when k is not reachable (non-positive, beyond the run
// length, a trap fires first), when the environment does not support
// cloning, or when spec.Monitor cannot report its state. A monitored
// capture freezes the monitor's state too, and only such a checkpoint
// can seed monitored runs. spec.Injection is ignored: checkpoints are
// always taken on the fault-free path.
func CaptureCheckpoint(prog *cpu.Program, spec RunSpec, k int) (*Checkpoint, error) {
	spec.Injection = nil
	spec.Golden = nil
	if spec.From != nil && spec.From.iteration >= k {
		spec.From = nil
	}
	return capture(prog, spec, k)
}

func capture(prog *cpu.Program, spec RunSpec, k int) (*Checkpoint, error) {
	if k <= 0 {
		return nil, fmt.Errorf("checkpoint at iteration %d: boundary must be positive", k)
	}
	if k >= spec.Iterations {
		return nil, fmt.Errorf("checkpoint at iteration %d: run has only %d iterations", k, spec.Iterations)
	}
	if spec.Monitor != nil && statefulMonitor(spec.Monitor) == nil {
		return nil, fmt.Errorf("checkpoint at iteration %d: the monitor cannot report its state", k)
	}
	spec.Observer = nil
	spec.RecordStateHashes = false
	out, ck := run(prog, spec, k)
	if ck != nil {
		return ck, nil
	}
	switch {
	case out.Trap != nil:
		return nil, fmt.Errorf("checkpoint at iteration %d: run trapped at iteration %d: %v",
			k, out.TrapIteration, out.Trap)
	case out.Aborted:
		return nil, fmt.Errorf("checkpoint at iteration %d: run aborted", k)
	default:
		return nil, fmt.Errorf("checkpoint at iteration %d: environment does not support cloning", k)
	}
}
